//! Output checks made apart from the program.
//!
//! Every delivered unit record is checked three ways:
//!
//! 1. **Re-derivation.** The record's design (its mapping and scaling
//!    strings) is replayed through `sea_sim::simulate_execution`, the
//!    discrete-event simulator, and P (eq. 5) and Γ (eq. 3) are recomputed
//!    here from the simulator's per-core busy times and the record's TM,
//!    the DVS table, the SER model's parameters and the register blocks of
//!    each core's tasks. The record's P, Γ and R must agree within
//!    [`REL_TOL`]. TM itself is not re-derived: the simulator executes
//!    tasks in ready order while the list scheduler inserts them into
//!    idle gaps, so their makespans legitimately differ.
//! 2. **The design itself.** Every task is mapped exactly once, to a core
//!    below `cores`; TM is at least the busiest core's busy time and at
//!    least the makespan lower bound; the winner meets its (scaled)
//!    deadline.
//! 3. **Method properties** on the typed payload: the winner is best
//!    under the unit's selection policy among the explored feasible
//!    scalings, every pruned scaling has a TM lower bound above the
//!    deadline, baselines keep one mapping across the scaling scan, and
//!    fault-injection counts lie within six standard deviations of the
//!    re-derived Γ.
//!
//! None of these compares against a stored copy of earlier output.

use sea_arch::{Architecture, SerModel};
use sea_campaign::{level_set, Unit, UnitKind, UnitPayload, UnitRecord, UnitResult};
use sea_opt::{DesignPoint, OptimizationOutcome, SelectionPolicy};
use sea_sched::{tm_lower_bound, Mapping};
use sea_taskgraph::{Application, TaskGraphSoa, TaskId};

/// Relative tolerance between a record's P, Γ and R and their
/// re-derivation. The re-derivation sums the same terms in its own
/// order, so the two agree to rounding, not bit for bit.
pub const REL_TOL: f64 = 1e-9;

fn close(what: &str, derived: f64, recorded: f64) -> Result<(), String> {
    let scale = derived.abs().max(recorded.abs()).max(f64::MIN_POSITIVE);
    if (derived - recorded).abs() <= REL_TOL * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: record says {recorded:e}, re-derived {derived:e}"
        ))
    }
}

/// Parses a record's scaling string, `(3,3,2,2)`.
fn parse_scaling(s: &str) -> Result<Vec<u8>, String> {
    s.strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("malformed scaling `{s}`"))?
        .split(',')
        .map(|c| {
            c.trim()
                .parse::<u8>()
                .map_err(|e| format!("scaling `{s}`: {e}"))
        })
        .collect()
}

/// Parses a record's mapping string, `core1: t1 t2 | core2: t3`, into
/// 0-based task groups per core, in core order.
fn parse_mapping(s: &str) -> Result<Vec<Vec<usize>>, String> {
    s.split(" | ")
        .enumerate()
        .map(|(i, group)| {
            let (core, tasks) = group
                .split_once(':')
                .ok_or_else(|| format!("malformed core group `{group}`"))?;
            if core.trim() != format!("core{}", i + 1) {
                return Err(format!("core group {} is labelled `{core}`", i + 1));
            }
            tasks
                .split_whitespace()
                .map(|t| {
                    t.strip_prefix('t')
                        .and_then(|n| n.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .map(|n| n - 1)
                        .ok_or_else(|| format!("malformed task `{t}`"))
                })
                .collect()
        })
        .collect()
}

/// What the re-derivation recomputed for one design.
#[derive(Debug, Clone, Copy)]
pub struct Derived {
    pub power_mw: f64,
    pub gamma: f64,
    pub r_kbits: f64,
}

/// Checks a record's design against the application and architecture it
/// claims to run on, and returns the re-derived figures.
///
/// # Errors
///
/// The first violated property, in words.
pub fn check_design_record(
    record: &UnitRecord,
    app: &Application,
    arch: &Architecture,
    ser: &SerModel,
) -> Result<Derived, String> {
    let n_tasks = app.graph().len();
    let cores = arch.n_cores();
    let scaling = parse_scaling(record.scaling.as_deref().ok_or("record has no scaling")?)?;
    let groups = parse_mapping(record.mapping.as_deref().ok_or("record has no mapping")?)?;
    if scaling.len() != cores || groups.len() != cores {
        return Err(format!(
            "design has {} scaling coefficients and {} core groups for {cores} cores",
            scaling.len(),
            groups.len()
        ));
    }
    let mut seen = vec![0usize; n_tasks];
    for group in &groups {
        for &t in group {
            if t >= n_tasks {
                return Err(format!(
                    "task t{} is outside the {n_tasks}-task graph",
                    t + 1
                ));
            }
            seen[t] += 1;
        }
    }
    if let Some(t) = seen.iter().position(|&k| k != 1) {
        return Err(format!("task t{} is mapped {} times", t + 1, seen[t]));
    }

    let group_refs: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
    let mapping = Mapping::from_groups(&group_refs, cores).map_err(|e| e.to_string())?;
    let scaling_vec =
        sea_arch::ScalingVector::try_new(scaling.clone(), arch).map_err(|e| e.to_string())?;
    let trace = sea_sim::simulate_execution(app, arch, &mapping, &scaling_vec)
        .map_err(|e| format!("the simulator rejects the design: {e}"))?;
    let tm = record.tm_seconds.ok_or("record has no TM")?;
    let busiest = trace.busy_s.iter().fold(0.0f64, |a, &b| a.max(b));
    if tm < busiest * (1.0 - REL_TOL) {
        return Err(format!(
            "TM {tm:e} s is below the busiest core's {busiest:e} s"
        ));
    }
    let bound = tm_lower_bound(&TaskGraphSoa::new(app), app.mode(), arch, &scaling_vec);
    if tm < bound * (1.0 - REL_TOL) {
        return Err(format!(
            "TM {tm:e} s is below the makespan lower bound {bound:e} s"
        ));
    }

    // Eq. 5: P = C_L · Σ α_i f_i V_i², α_i = busy_i / TM.
    // Eq. 3: Γ = Σ R_i · (TM · f_i) · λ(V_i), λ(V) = λ_ref · e^{k (V_nom − V)}.
    let registers = app.registers();
    let mut p_sum = 0.0;
    let mut gamma = 0.0;
    let mut r_total_bits = 0.0;
    for (core, group) in groups.iter().enumerate() {
        let level = arch.levels().level(scaling[core]);
        let alpha = if tm > 0.0 {
            (trace.busy_s[core] / tm).min(1.0)
        } else {
            0.0
        };
        p_sum += alpha * level.f_hz * level.vdd * level.vdd;
        let mut blocks: Vec<usize> = group
            .iter()
            .flat_map(|&t| {
                registers
                    .task_blocks(TaskId::new(t))
                    .iter()
                    .map(|b| b.index())
            })
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let r_bits: f64 = blocks
            .iter()
            .map(|&b| registers.blocks()[b].bits().as_f64())
            .sum();
        let lambda = ser.lambda_ref() * (ser.k() * (ser.v_nom() - level.vdd)).exp();
        gamma += r_bits * tm * level.f_hz * lambda;
        r_total_bits += r_bits;
    }
    let derived = Derived {
        power_mw: arch.c_load_farads() * p_sum * 1e3,
        gamma,
        r_kbits: r_total_bits / 1000.0,
    };
    close(
        "P (mW)",
        derived.power_mw,
        record.power_mw.ok_or("record has no P")?,
    )?;
    close(
        "Gamma",
        derived.gamma,
        record.gamma.ok_or("record has no Gamma")?,
    )?;
    close(
        "R (kbit)",
        derived.r_kbits,
        record.r_kbits.ok_or("record has no R")?,
    )?;
    Ok(derived)
}

/// `a` is strictly better than `b` under the selection rule, as the
/// paper's iterative assessment (Fig. 4) ranks two feasible designs.
fn prefers(policy: SelectionPolicy, a: &DesignPoint, b: &DesignPoint) -> bool {
    let (ap, ag) = (a.evaluation.power_mw, a.evaluation.gamma);
    let (bp, bg) = (b.evaluation.power_mw, b.evaluation.gamma);
    match policy {
        SelectionPolicy::PowerGammaProduct => ap * ag < bp * bg || (ap * ag == bp * bg && ap < bp),
        SelectionPolicy::GammaFirst => ag < bg || (ag == bg && ap < bp),
        SelectionPolicy::PowerFirst { tolerance } => {
            let band = 1.0 + tolerance.max(0.0);
            if ap <= bp * band && bp <= ap * band {
                ag < bg || (ag == bg && ap < bp)
            } else {
                ap < bp
            }
        }
        SelectionPolicy::Weighted { w_power } => {
            let w = w_power.clamp(0.0, 1.0);
            w * ap / bp + (1.0 - w) * ag / bg < 1.0
        }
    }
}

fn same_design(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.scaling == b.scaling
        && a.mapping == b.mapping
        && a.evaluation.power_mw.to_bits() == b.evaluation.power_mw.to_bits()
        && a.evaluation.gamma.to_bits() == b.evaluation.gamma.to_bits()
        && a.evaluation.tm_seconds.to_bits() == b.evaluation.tm_seconds.to_bits()
}

/// Method properties of an optimize or baseline outcome.
///
/// # Errors
///
/// The first violated property, in words.
pub fn check_outcome(
    unit: &Unit,
    app: &Application,
    arch: &Architecture,
    out: &OptimizationOutcome,
) -> Result<(), String> {
    let deadline = app.deadline_s();
    let winner = &out.best;
    if winner.evaluation.tm_seconds > deadline {
        return Err(format!(
            "the winner's TM {:e} s misses the deadline {deadline:e} s",
            winner.evaluation.tm_seconds
        ));
    }
    let soa = TaskGraphSoa::new(app);
    let mut feasible: Vec<&DesignPoint> = Vec::new();
    let mut spent = 0usize;
    for o in &out.explored {
        spent += o.evaluations;
        match &o.best {
            None => {
                let bound = tm_lower_bound(&soa, app.mode(), arch, &o.scaling);
                if bound <= deadline {
                    return Err(format!(
                        "scaling {} was pruned but its TM bound {bound:e} s \
                         does not exceed the deadline {deadline:e} s",
                        o.scaling
                    ));
                }
                if o.feasible || o.evaluations != 0 {
                    return Err(format!("pruned scaling {} reports search work", o.scaling));
                }
            }
            Some(point) => {
                if o.feasible != (point.evaluation.tm_seconds <= deadline) {
                    return Err(format!(
                        "scaling {} is marked feasible={} at TM {:e} s, deadline {deadline:e} s",
                        o.scaling, o.feasible, point.evaluation.tm_seconds
                    ));
                }
                if o.feasible {
                    feasible.push(point);
                }
            }
        }
    }
    if spent > out.total_evaluations {
        return Err(format!(
            "explored scalings spent {spent} evaluations, the total says {}",
            out.total_evaluations
        ));
    }
    if !feasible.iter().any(|p| same_design(p, winner)) {
        return Err("the winner is not among the explored feasible designs".into());
    }
    match unit.kind {
        UnitKind::Optimize => {
            // Product and Γ-first rankings are total orders, so the winner
            // must beat every feasible design. The banded and weighted
            // rules are not transitive; for them the winner must be what
            // the sequential assessment in enumeration order selects.
            let policy = unit.selection;
            match policy {
                SelectionPolicy::PowerGammaProduct | SelectionPolicy::GammaFirst => {
                    if let Some(better) = feasible.iter().find(|p| prefers(policy, p, winner)) {
                        return Err(format!(
                            "scaling {} beats the winner {} under {policy:?}",
                            better.scaling, winner.scaling
                        ));
                    }
                }
                _ => {
                    let mut best = feasible[0];
                    for p in &feasible[1..] {
                        if prefers(policy, p, best) {
                            best = p;
                        }
                    }
                    if !same_design(best, winner) {
                        return Err(format!(
                            "the assessment selects {}, the outcome says {}",
                            best.scaling, winner.scaling
                        ));
                    }
                }
            }
        }
        UnitKind::Baseline(_) => {
            // A baseline anneals one mapping at nominal voltage, then
            // scans every scaling and keeps the lowest-power feasible one.
            if let Some(o) = out
                .explored
                .iter()
                .find(|o| o.best.as_ref().is_some_and(|p| p.mapping != winner.mapping))
            {
                return Err(format!("the baseline changed its mapping at {}", o.scaling));
            }
            if let Some(p) = feasible
                .iter()
                .find(|p| p.evaluation.power_mw < winner.evaluation.power_mw)
            {
                return Err(format!(
                    "feasible scaling {} draws less power than the baseline's pick",
                    p.scaling
                ));
            }
        }
        _ => return Err("a design payload on a sweep or simulate unit".into()),
    }
    Ok(())
}

/// Checks one delivered unit: status, re-derivation, design and method
/// properties.
///
/// # Errors
///
/// Why the unit counts as failed.
pub fn check_result(result: &UnitResult) -> Result<(), String> {
    let record = &result.record;
    if record.status != "ok" {
        return Err(format!("status `{}`", record.status));
    }
    let unit = &result.unit;
    let app = unit.app.build().map_err(|e| e.to_string())?;
    let arch = Architecture::arm7_calibrated(unit.cores, level_set(unit.levels));
    match (&unit.kind, &result.payload) {
        (UnitKind::Optimize | UnitKind::Baseline(_), UnitPayload::Design(out)) => {
            check_design_record(record, &app, &arch, &SerModel::default())?;
            if record.evaluations != Some(out.total_evaluations) {
                return Err("the record's evaluation count differs from the outcome's".into());
            }
            check_outcome(unit, &app, &arch, out)
        }
        (UnitKind::Simulate { ser, .. }, UnitPayload::Sim(_)) => {
            let derived = check_design_record(record, &app, &arch, &SerModel::calibrated(*ser))?;
            let seus = record
                .experienced_seus
                .ok_or("simulate record has no SEU count")? as f64;
            // Experienced upsets are Poisson with mean Γ.
            let slack = 6.0 * derived.gamma.sqrt() + 6.0;
            if (seus - derived.gamma).abs() > slack {
                return Err(format!(
                    "{seus} experienced SEUs is more than six deviations from Gamma {:e}",
                    derived.gamma
                ));
            }
            Ok(())
        }
        (kind, _) => Err(format!("no check for a {} unit", kind.label())),
    }
}

/// Line numbers (0-based) at which two JSONL streams differ, counting
/// lines missing from either side.
#[must_use]
pub fn differing_lines(expected: &str, got: &str) -> Vec<usize> {
    let e: Vec<&str> = expected.lines().collect();
    let g: Vec<&str> = got.lines().collect();
    (0..e.len().max(g.len()))
        .filter(|&i| e.get(i) != g.get(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::ScalingVector;
    use sea_campaign::{run_unit, AppRef, BudgetSpec};
    use sea_opt::ScalingOutcome;
    use sea_taskgraph::AppSpec;

    fn unit(kind: UnitKind, app: &str, deadline_scale: Option<f64>) -> Unit {
        let spec: AppSpec = app.parse().unwrap();
        Unit {
            index: 0,
            scenario: "check".into(),
            kind,
            app: match deadline_scale {
                Some(deadline_scale) => AppRef::Scaled {
                    spec,
                    deadline_scale,
                },
                None => AppRef::Spec(spec),
            },
            cores: 4,
            levels: 3,
            budget: BudgetSpec::Smoke,
            selection: SelectionPolicy::default(),
            seed: 11,
        }
    }

    fn optimize(deadline_scale: Option<f64>) -> UnitResult {
        let r = run_unit(&unit(UnitKind::Optimize, "mpeg2", deadline_scale)).unwrap();
        check_result(&r).expect("an untouched result passes");
        r
    }

    fn design(r: &mut UnitResult) -> &mut OptimizationOutcome {
        match &mut r.payload {
            UnitPayload::Design(out) => out,
            _ => panic!("optimize units carry a design"),
        }
    }

    #[test]
    fn untouched_results_of_every_kind_pass() {
        optimize(None);
        let tight = optimize(Some(0.4));
        match &tight.payload {
            UnitPayload::Design(out) => assert!(out.scalings_pruned() > 0),
            _ => unreachable!(),
        }
        let base = run_unit(&unit(
            UnitKind::Baseline(sea_baselines::Objective::RegTimeProduct),
            "random:20:3",
            None,
        ))
        .unwrap();
        check_result(&base).unwrap();
        let sim = run_unit(&Unit {
            kind: UnitKind::Simulate {
                scaling: vec![2, 2, 3, 2],
                groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
                ser: sea_arch::ser::PAPER_SER,
            },
            ..unit(UnitKind::Optimize, "mpeg2", None)
        })
        .unwrap();
        check_result(&sim).unwrap();
    }

    #[test]
    fn a_perturbed_power_is_caught() {
        let mut r = optimize(None);
        let p = r.record.power_mw.unwrap();
        r.record.power_mw = Some(p * (1.0 + 1e-6));
        let err = check_result(&r).unwrap_err();
        assert!(err.contains("P (mW)"), "{err}");
    }

    #[test]
    fn a_dropped_task_is_caught() {
        let mut r = optimize(None);
        let mapping = r.record.mapping.clone().unwrap();
        // Drop the last task token of the first core group.
        let (first, rest) = mapping.split_once(" | ").unwrap();
        let trimmed = first.rsplit_once(' ').unwrap().0;
        r.record.mapping = Some(format!("{trimmed} | {rest}"));
        let err = check_result(&r).unwrap_err();
        assert!(err.contains("mapped 0 times"), "{err}");
    }

    #[test]
    fn a_tm_over_the_deadline_is_caught() {
        let mut r = optimize(None);
        // Tighten the unit's deadline below the winner's TM: the record
        // and outcome are unchanged, but the winner no longer qualifies.
        let tm = r.record.tm_seconds.unwrap();
        let deadline = r.unit.app.build().unwrap().deadline_s();
        r.unit.app = AppRef::Scaled {
            spec: AppSpec::Mpeg2,
            deadline_scale: tm / deadline * (1.0 - 1e-6),
        };
        let err = check_result(&r).unwrap_err();
        assert!(err.contains("misses the deadline"), "{err}");
    }

    #[test]
    fn a_pruned_scaling_with_a_low_bound_is_caught() {
        let mut r = optimize(None);
        let app = r.unit.app.build().unwrap();
        let arch = Architecture::arm7_calibrated(4, level_set(3));
        let soa = TaskGraphSoa::new(&app);
        let out = design(&mut r);
        // Mark a searched scaling pruned although its bound admits the
        // deadline.
        let winner = out.best.scaling.clone();
        let victim = out
            .explored
            .iter_mut()
            .find(|o| {
                o.scaling != winner
                    && tm_lower_bound(&soa, app.mode(), &arch, &o.scaling) <= app.deadline_s()
            })
            .unwrap();
        *victim = ScalingOutcome {
            scaling: victim.scaling.clone(),
            best: None,
            feasible: false,
            evaluations: 0,
        };
        let err = check_result(&r).unwrap_err();
        assert!(err.contains("does not exceed the deadline"), "{err}");
    }

    #[test]
    fn a_better_feasible_design_than_the_winner_is_caught() {
        let mut r = optimize(None);
        let out = design(&mut r);
        let winner = out.best.clone();
        let other = out
            .explored
            .iter_mut()
            .find(|o| o.feasible && o.scaling != winner.scaling)
            .unwrap();
        let point = other.best.as_mut().unwrap();
        point.evaluation.power_mw = winner.evaluation.power_mw * 0.5;
        point.evaluation.gamma = winner.evaluation.gamma * 0.5;
        let err = check_result(&r).unwrap_err();
        assert!(err.contains("beats the winner"), "{err}");
    }

    #[test]
    fn a_record_stream_one_byte_off_is_caught() {
        let r = optimize(None);
        let line = sea_campaign::json_record(&r.record);
        let expected = format!("{line}\n{line}\n");
        let mut bytes = expected.clone().into_bytes();
        let at = line.len() + 10;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let got = String::from_utf8(bytes).unwrap();
        assert_eq!(differing_lines(&expected, &got), vec![1]);
        assert!(differing_lines(&expected, &expected).is_empty());
        assert_eq!(differing_lines(&expected, &format!("{line}\n")), vec![1]);
    }

    #[test]
    fn scaling_and_mapping_strings_parse() {
        assert_eq!(parse_scaling("(3,3,2,2)").unwrap(), vec![3, 3, 2, 2]);
        assert_eq!(
            parse_mapping("core1: t1 t2 | core2: t3").unwrap(),
            vec![vec![0, 1], vec![2]]
        );
        assert!(parse_mapping("core2: t1").is_err());
        let arch = Architecture::arm7_calibrated(4, level_set(3));
        assert!(ScalingVector::try_new(vec![2, 2, 3, 2], &arch).is_ok());
    }
}
