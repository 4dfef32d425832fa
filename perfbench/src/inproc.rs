//! The in-process workloads, `search-paper` and `paper-smoke`: unit lists
//! built from the benchmark seed and run at one compute thread through
//! `sea_campaign::run_units_configured` (untraced) or through the same
//! `RunState` calls it makes, one span per call (traced).

use std::sync::Arc;
use std::time::Instant;

use sea_baselines::Objective;
use sea_campaign::{
    produce_unit, run_units_configured, unit_hash, AppRef, BudgetSpec, RunConfig, RunState, Sink,
    Unit, UnitKind, UnitRecord, UnitResult,
};
use sea_experiments::ablations::{mc_units, reference_design};
use sea_experiments::{campaigns, fig10, fig11, fig3, table2, table3, EffortProfile};
use sea_opt::SelectionPolicy;
use sea_taskgraph::generator::RandomGraphConfig;
use sea_taskgraph::{mpeg2, Application, TaskGraphSoa};

use crate::trace::Tracer;
use crate::util::mix;

/// (cores, deadline multiplier) of the tight `search-paper` units.
/// MPEG-2's own deadline admits every scaling; at these multipliers the
/// TM bound rules out most of them while a design still exists (the
/// example campaign `campaign_tight_deadline.toml` sits at 0.38 on four
/// cores; below 0.35 nothing is feasible there, and on three cores 0.45
/// is already infeasible). The graph is fixed, so feasibility does not
/// hang on the seed.
const TIGHT_SCALES: [(usize, f64); 2] = [(4, 0.40), (3, 0.50)];

/// One pass's unit list and what building it cost.
pub struct Setup {
    pub units: Vec<Unit>,
    /// Graph generation plus structure-of-arrays builds.
    pub taskgraph_s: f64,
    /// Unit-list construction plus one content hash per unit.
    pub expand_s: f64,
    /// Everything from the start of set-up to the first unit starting.
    pub total_s: f64,
    /// Seed of the inline Fig. 3 mapping sweep (`paper-smoke` only).
    pub fig3_seed: Option<u64>,
}

fn inline_unit(
    scenario: &str,
    kind: UnitKind,
    app: &Arc<Application>,
    cores: usize,
    budget: BudgetSpec,
    seed: u64,
) -> Unit {
    Unit {
        index: 0,
        scenario: scenario.into(),
        kind,
        app: AppRef::Inline(Arc::clone(app)),
        cores,
        levels: 3,
        budget,
        selection: SelectionPolicy::default(),
        seed,
    }
}

fn soa_for(units: &[Unit]) {
    for u in units {
        if let AppRef::Inline(app) = &u.app {
            let _ = TaskGraphSoa::shared(app);
        }
    }
}

fn finish_setup(
    start: Instant,
    graphs_done: Instant,
    mut units: Vec<Unit>,
    fig3_seed: Option<u64>,
) -> Setup {
    let t_units = Instant::now();
    for (i, u) in units.iter_mut().enumerate() {
        u.index = i;
    }
    for u in &units {
        std::hint::black_box(unit_hash(u));
    }
    let end = Instant::now();
    Setup {
        units,
        taskgraph_s: (graphs_done - start).as_secs_f64(),
        expand_s: (end - t_units).as_secs_f64(),
        total_s: (end - start).as_secs_f64(),
        fig3_seed,
    }
}

/// `search-paper`: the proposed flow and the Exp:1–3 SA baselines at the
/// harness `paper` budget on MPEG-2 and two seeded random graphs (60 and
/// 100 tasks), plus tight-deadline MPEG-2 units that exercise pruning.
///
/// # Panics
///
/// Panics if the fixed generator parameters are rejected.
#[must_use]
pub fn search_paper(seed: u64) -> Setup {
    let start = Instant::now();
    let mpeg2 = Arc::new(mpeg2::application());
    let g60 = Arc::new(
        RandomGraphConfig::paper(60)
            .generate(mix(seed, 60))
            .expect("valid generator parameters"),
    );
    let g100 = Arc::new(
        RandomGraphConfig::paper(100)
            .generate(mix(seed, 100))
            .expect("valid generator parameters"),
    );
    let tight: Vec<(usize, Arc<Application>)> = TIGHT_SCALES
        .iter()
        .map(|&(cores, scale)| {
            let app = mpeg2
                .with_deadline(mpeg2.deadline_s() * scale)
                .expect("a positive deadline");
            (cores, Arc::new(app))
        })
        .collect();
    for app in [&mpeg2, &g60, &g100]
        .into_iter()
        .chain(tight.iter().map(|(_, a)| a))
    {
        let _ = TaskGraphSoa::shared(app);
    }
    let graphs_done = Instant::now();

    let s = |k: u64| mix(seed, 1000 + k);
    let paper = BudgetSpec::Paper;
    let mut units = vec![
        inline_unit("search", UnitKind::Optimize, &mpeg2, 4, paper, s(0)),
        inline_unit("search", UnitKind::Optimize, &g60, 3, paper, s(1)),
        inline_unit("search", UnitKind::Optimize, &g100, 3, paper, s(2)),
    ];
    for (k, (cores, app)) in tight.iter().enumerate() {
        units.push(inline_unit(
            "tight",
            UnitKind::Optimize,
            app,
            *cores,
            paper,
            s(3 + k as u64),
        ));
    }
    // Exp:1 (register usage) anneals towards few busy cores; on random
    // graphs that misses the deadline for a few graphs in a hundred, so it
    // runs on MPEG-2 only (feasible for every seed at this budget).
    let baselines = [
        (Objective::RegisterUsage, &mpeg2, 4usize),
        (Objective::Parallelism, &mpeg2, 4),
        (Objective::RegTimeProduct, &mpeg2, 4),
        (Objective::Parallelism, &g60, 6),
        (Objective::RegTimeProduct, &g60, 6),
        (Objective::Parallelism, &g100, 8),
        (Objective::RegTimeProduct, &g100, 8),
    ];
    for (k, (objective, app, cores)) in baselines.into_iter().enumerate() {
        units.push(inline_unit(
            "baseline",
            UnitKind::Baseline(objective),
            app,
            cores,
            paper,
            s(10 + k as u64),
        ));
    }
    finish_setup(start, graphs_done, units, None)
}

/// `paper-smoke`: the `reproduce smoke` unit list (Table II, Table III,
/// Figs. 10 and 11, the Monte-Carlo validation) plus the inline Fig. 3
/// sweep, with graph and unit seeds drawn from the benchmark seed. The
/// four Table II units keep the harness seed: at the smoke budget the
/// Exp:1 baseline misses MPEG-2's deadline for about one annealing seed
/// in six, and Table II is the published, always-feasible setup.
///
/// # Panics
///
/// Panics if the fixed generator parameters are rejected.
#[must_use]
pub fn paper_smoke(seed: u64) -> Setup {
    let start = Instant::now();
    let profile = EffortProfile::Smoke;
    let graph_seed = mix(seed, 7);
    let mpeg2 = Arc::new(mpeg2::application());
    let app60 = Arc::new(
        RandomGraphConfig::paper(60)
            .generate(graph_seed)
            .expect("valid generator parameters"),
    );
    let t3_workloads = table3::paper_workloads(graph_seed);
    let t3_cores = [2usize, 3, 4, 5, 6];
    let (ref_app, _, ref_mapping, ref_scaling) = reference_design();
    let ref_app = Arc::new(ref_app);
    let mc_designs = vec![("Exp:4 (proposed)".to_string(), ref_mapping, ref_scaling)];
    let (mut units, ranges) = campaigns::merge(vec![
        table2::units_on(&mpeg2, profile, 4),
        table3::units_on(&t3_workloads, &t3_cores, profile),
        fig10::units_on(&app60, &t3_cores, profile),
        fig11::units_on(&app60, 6, profile),
        mc_units(&ref_app, &mc_designs, 3, 13),
    ]);
    soa_for(&units);
    let graphs_done = Instant::now();
    for u in &mut units[ranges[0].end..] {
        u.seed = mix(seed, 2000 + u.index as u64);
    }
    finish_setup(start, graphs_done, units, Some(mix(seed, 3)))
}

/// Builds the named in-process workload.
#[must_use]
pub fn setup(workload: &str, seed: u64) -> Setup {
    match workload {
        "search-paper" => search_paper(seed),
        _ => paper_smoke(seed),
    }
}

/// Counts the records that arrive.
struct Delivered(usize);

impl Sink for Delivered {
    fn unit_completed(&mut self, _record: &UnitRecord) {
        self.0 += 1;
    }
}

/// One measured pass.
pub struct Pass {
    pub seconds: f64,
    /// Records the sink received.
    pub delivered: usize,
    /// Time in the inline Fig. 3 sweep.
    pub sweep_s: f64,
    /// Per-unit results in enumeration order, or the error that stopped
    /// the pass.
    pub results: Result<Vec<UnitResult>, String>,
}

/// The Fig. 3 random-mapping sweep (120 mappings at two uniform
/// scalings); returns its duration.
#[must_use]
pub fn run_fig3(seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(fig3::run(120, seed).expect("Fig. 3 sweep"));
    t.elapsed().as_secs_f64()
}

/// Runs one untraced pass: the Fig. 3 sweep (if any), then the unit list
/// through `run_units_configured` at one job, no cache, no journal.
#[must_use]
pub fn run_pass(setup: &Setup) -> Pass {
    let start = Instant::now();
    let sweep_s = setup.fig3_seed.map_or(0.0, run_fig3);
    let mut sink = Delivered(0);
    let outcome = run_units_configured(&setup.units, RunConfig::new(1), &mut sink);
    let seconds = start.elapsed().as_secs_f64();
    Pass {
        seconds,
        delivered: sink.0,
        sweep_s,
        results: outcome
            .map_err(|e| e.to_string())
            .map(|o| o.into_results().expect("a plain run restores nothing")),
    }
}

/// The span name of a unit's evaluation.
#[must_use]
pub fn unit_span_name(unit: &Unit) -> &'static str {
    match unit.kind {
        UnitKind::Optimize => "unit.optimize",
        UnitKind::Baseline(_) => "unit.baseline",
        UnitKind::Sweep { .. } => "unit.sweep",
        UnitKind::Simulate { .. } => "unit.simulate",
    }
}

/// Runs one traced pass: the `jobs 1` path of `run_units_configured`
/// (`RunState::plan` → `produce_unit` → `RunState::complete` → `finish`)
/// with a span around every call. Returns the pass and the id of its
/// `run` span.
pub fn run_pass_traced(setup: &Setup, tracer: &mut Tracer) -> (Pass, usize) {
    let start = Instant::now();
    let sweep_s = setup.fig3_seed.map_or(0.0, |seed| {
        tracer.span("sweep.fig3", None, None, || run_fig3(seed))
    });
    let run = tracer.open("run", None, None);
    let mut sink = Delivered(0);
    let units = &setup.units;
    let mut state = tracer.span("plan", Some(run), None, || {
        RunState::plan(units, Vec::new(), false, None)
    });
    sink.begin(state.pending().len());
    for i in state.pending().to_vec() {
        let hash = Some(unit_hash(&units[i]).to_hex());
        let done = tracer.span(unit_span_name(&units[i]), Some(run), hash.clone(), || {
            produce_unit(i, &units[i], None, 1)
        });
        let go_on = tracer.span("complete", Some(run), hash, || {
            state.complete(done, &mut sink)
        });
        if !go_on {
            break;
        }
    }
    let outcome = tracer.span("finish", Some(run), None, || state.finish(&mut sink));
    tracer.close(run);
    let seconds = start.elapsed().as_secs_f64();
    let pass = Pass {
        seconds,
        delivered: sink.0,
        sweep_s,
        results: outcome
            .map_err(|e| e.to_string())
            .map(|o| o.into_results().expect("a plain run restores nothing")),
    };
    (pass, run)
}
