//! End-to-end and per-layer benchmark of the sea-dse pipeline.
//!
//! ```text
//! perfbench --workload <search-paper|paper-smoke|fleet-overlap> --seed <n>
//!           --seconds <s> --trace <0|1> --sea-dse <path to the sea-dse binary>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds the program
//! and this benchmark first. Traces and scratch files go to `.perfbench/`
//! under the working directory. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A `host` line
//! before it stamps the run with core count, compiler, build profile,
//! source revision and load.

mod check;
mod fleet;
mod inproc;
mod probe;
mod trace;
mod util;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sea_campaign::{parse_campaign, unit_hash, AppRef, UnitKind, UnitPayload, UnitResult};
use sea_taskgraph::{Application, TaskGraphSoa};

use crate::fleet::{CampaignRun, Fleet, FleetStop};
use crate::inproc::{Pass, Setup};
use crate::trace::Tracer;
use crate::util::{json_num, json_str, median, mix, peak_rss_mib, Json};

const WORKLOADS: [&str; 3] = ["search-paper", "paper-smoke", "fleet-overlap"];

/// Where traces and per-run scratch directories go.
const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics of every workload: name and unit (all measured with
/// tracing off).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics only `fleet-overlap` has: per-campaign latencies
/// and the fleet's CPU per record. In process, a pass is a fixed unit list
/// on one thread, so its time and CPU would only restate `units_per_s`.
const FLEET_END_TO_END: [(&str, &str); 3] = [
    ("campaign_p50_s", "s"),
    ("first_record_p50_ms", "ms"),
    ("cpu_ms_per_unit", "ms"),
];

/// Per-layer metrics: name and unit (from the traced run).
const PER_LAYER: [(&str, &str); 31] = [
    ("taskgraph.build_ms", "ms"),
    ("campaign.expand_ms", "ms"),
    ("sched.full_eval_ns", "ns"),
    ("sched.move_eval_ns", "ns"),
    ("sched.cone_ratio", "ratio"),
    ("sched.fallback_per_kmove", "count"),
    ("sched.bound_ns", "ns"),
    ("opt.busy_s", "s"),
    ("opt.ns_per_eval", "ns"),
    ("opt.evaluations", "count"),
    ("opt.scalings_pruned", "count"),
    ("opt.unit_p50_ms", "ms"),
    ("baselines.ns_per_eval", "ns"),
    ("sweep.busy_s", "s"),
    ("sim.busy_s", "s"),
    ("campaign.merge_us", "us"),
    ("campaign.overhead_share", "ratio"),
    ("journal.append_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_us", "us"),
    ("cache.miss_us", "us"),
    ("cache.entry_bytes", "B"),
    ("wire.work_bytes", "B"),
    ("wire.result_bytes", "B"),
    ("wire.roundtrip_us", "us"),
    ("serve.evaluated", "count"),
    ("serve.served_without_eval", "count"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.status_ms", "ms"),
    ("serve.daemon_cpu_ms_per_unit", "ms"),
    ("worker.cpu_ms_per_unit", "ms"),
];

/// Campaigns of the seed's fleet list that the in-process workloads'
/// traced runs submit to a loopback fleet for the `serve.*` rows.
const SERVE_PROBE_CAMPAIGNS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sea_dse: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--sea-dse" => flag.as_str(),
            other => return Err(format!("unknown flag `{other}`")),
        };
        if flags.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        sea_dse: flags.get("--sea-dse").map(PathBuf::from),
    })
}

/// What a run reports: operation counts, metrics, and why operations
/// failed.
struct Report {
    attempted: usize,
    failed: usize,
    /// False when a check that belongs to no single operation failed
    /// (kernel-probe divergence, fleet client error or evaluation count,
    /// I/O round trip).
    correct: bool,
    metrics: BTreeMap<&'static str, f64>,
    reasons: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
            reasons: Vec::new(),
        }
    }

    fn fail(&mut self, n: usize, why: String) {
        self.failed += n;
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }

    fn wrong(&mut self, why: String) {
        self.correct = false;
        self.reasons.push(why);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn final_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Checks a pass's results, counting each failure against its unit.
fn check_pass(report: &mut Report, units: usize, pass: &Pass) {
    report.attempted += units;
    match &pass.results {
        Err(e) => report.fail(units, format!("pass aborted: {e}")),
        Ok(results) => {
            for r in results {
                if let Err(e) = check::check_result(r) {
                    report.fail(
                        1,
                        format!("unit {} ({}): {e}", r.record.index, r.record.kind),
                    );
                }
            }
        }
    }
}

/// Distinct (application, cores, levels) triples of a unit list, in
/// first-seen order; inline applications compare by identity.
fn kernel_pairs(units: &[sea_campaign::Unit]) -> Vec<(Arc<Application>, usize, usize)> {
    let mut pairs: Vec<(Arc<Application>, usize, usize)> = Vec::new();
    for u in units {
        let Ok(app) = u.app.build() else { continue };
        if !pairs
            .iter()
            .any(|(a, c, l)| Arc::ptr_eq(a, &app) && *c == u.cores && *l == u.levels)
        {
            pairs.push((app, u.cores, u.levels));
        }
    }
    pairs
}

fn kernel_probe(report: &mut Report, units: &[sea_campaign::Unit], seed: u64) {
    let pairs = kernel_pairs(units);
    let k = probe::kernel(&pairs, mix(seed, 0x5C4E));
    if k.mismatches > 0 {
        report.wrong(format!(
            "kernel probe: {} of {} incremental summaries differ from the full evaluator",
            k.mismatches, k.moves
        ));
    }
    report.set("sched.full_eval_ns", k.full_ns / k.full_evals as f64);
    report.set("sched.move_eval_ns", k.move_ns / k.moves as f64);
    report.set("sched.bound_ns", k.bound_ns / k.bounds as f64);
    report.set(
        "sched.cone_ratio",
        k.replayed_tasks as f64 / k.replay_window.max(1) as f64,
    );
    report.set(
        "sched.fallback_per_kmove",
        k.fallback as f64 * 1000.0 / k.moves as f64,
    );
}

fn io_probe(report: &mut Report, results: &[UnitResult], dir: &Path) {
    match probe::io(results, dir) {
        Ok(io) => {
            if io.faults > 0 {
                report.wrong(format!(
                    "persistence/wire probe: {} faulty round trips",
                    io.faults
                ));
            }
            report.set("journal.append_us", io.journal_append_us);
            report.set("cache.store_us", io.cache_store_us);
            report.set("cache.hit_us", io.cache_hit_us);
            report.set("cache.miss_us", io.cache_miss_us);
            report.set("cache.entry_bytes", io.cache_entry_bytes);
            report.set("wire.work_bytes", io.wire_work_bytes);
            report.set("wire.result_bytes", io.wire_result_bytes);
            report.set("wire.roundtrip_us", io.wire_roundtrip_us);
        }
        Err(e) => report.wrong(format!("persistence/wire probe: {e}")),
    }
}

/// Roll-up of a traced pass's unit spans.
#[derive(Default)]
struct PassLayers {
    opt_busy_s: f64,
    opt_evals: usize,
    opt_pruned: usize,
    opt_unit_ms: Vec<f64>,
    base_busy_s: f64,
    base_evals: usize,
    sim_busy_s: f64,
    merge_us: Vec<f64>,
    /// Wall time of the `run` span, and the part unit spans cover.
    wall_s: f64,
    unit_s: f64,
}

impl PassLayers {
    /// Adds another pass's figures (the fleet's reference runs one pass
    /// per campaign; together they are one pass over the workload).
    fn absorb(&mut self, other: PassLayers) {
        self.opt_busy_s += other.opt_busy_s;
        self.opt_evals += other.opt_evals;
        self.opt_pruned += other.opt_pruned;
        self.opt_unit_ms.extend(other.opt_unit_ms);
        self.base_busy_s += other.base_busy_s;
        self.base_evals += other.base_evals;
        self.sim_busy_s += other.sim_busy_s;
        self.merge_us.extend(other.merge_us);
        self.wall_s += other.wall_s;
        self.unit_s += other.unit_s;
    }
}

fn pass_layers(tracer: &Tracer, run: usize, results: &[UnitResult]) -> PassLayers {
    let mut out = PassLayers::default();
    for r in results {
        if let UnitPayload::Design(o) = &r.payload {
            match r.unit.kind {
                UnitKind::Optimize => {
                    out.opt_evals += o.total_evaluations;
                    out.opt_pruned += o.scalings_pruned();
                }
                _ => out.base_evals += o.total_evaluations,
            }
        }
    }
    for s in tracer.spans.iter().filter(|s| s.parent == Some(run)) {
        let own = tracer.self_seconds(s.id);
        match s.name {
            "unit.optimize" => {
                out.opt_busy_s += own;
                out.opt_unit_ms.push(own * 1e3);
            }
            "unit.baseline" => out.base_busy_s += own,
            "unit.simulate" => out.sim_busy_s += own,
            "complete" => out.merge_us.push(own * 1e6),
            _ => {}
        }
        if s.name.starts_with("unit.") {
            out.unit_s += own;
        }
    }
    out.wall_s = tracer.spans[run].seconds();
    out
}

/// Sets the search, baseline, simulation and pool rows: times are medians
/// over passes, counts come from the first pass (every pass repeats them).
fn set_pass_layers(report: &mut Report, layers: &[PassLayers]) {
    let med = |f: &dyn Fn(&PassLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let first = &layers[0];
    let opt_busy = med(&|l| l.opt_busy_s);
    report.set("opt.busy_s", opt_busy);
    report.set("opt.evaluations", first.opt_evals as f64);
    report.set(
        "opt.ns_per_eval",
        opt_busy * 1e9 / first.opt_evals.max(1) as f64,
    );
    report.set("opt.scalings_pruned", first.opt_pruned as f64);
    let unit_ms: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.opt_unit_ms.iter().copied())
        .collect();
    report.set("opt.unit_p50_ms", median(&unit_ms));
    report.set(
        "baselines.ns_per_eval",
        med(&|l| l.base_busy_s) * 1e9 / first.base_evals.max(1) as f64,
    );
    let merge: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.merge_us.iter().copied())
        .collect();
    report.set("campaign.merge_us", median(&merge));
    report.set(
        "campaign.overhead_share",
        med(&|l| (l.wall_s - l.unit_s) / l.wall_s),
    );
    if first.sim_busy_s > 0.0 {
        report.set("sim.busy_s", med(&|l| l.sim_busy_s));
    }
}

/// Times the layers a workload does not exercise itself on a stand-in:
/// the Fig. 3 sweep and the Monte-Carlo validation unit.
fn stand_in_probes(report: &mut Report, seed: u64) {
    if !report.metrics.contains_key("sweep.busy_s") {
        report.set("sweep.busy_s", inproc::run_fig3(mix(seed, 3)));
    }
    if !report.metrics.contains_key("sim.busy_s") {
        let setup = inproc::paper_smoke(seed);
        let mc: Vec<_> = setup
            .units
            .into_iter()
            .filter(|u| matches!(u.kind, UnitKind::Simulate { .. }))
            .collect();
        let t = std::time::Instant::now();
        for (i, u) in mc.iter().enumerate() {
            std::hint::black_box(sea_campaign::produce_unit(i, u, None, 1));
        }
        report.set("sim.busy_s", t.elapsed().as_secs_f64());
    }
}

fn in_process(args: &Args, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    let mut tracer = Tracer::new();
    let (mut setups, mut expand, mut graphs, mut sweeps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers: Vec<PassLayers> = Vec::new();
    let (mut measured, mut delivered) = (0.0, 0usize);
    let mut kept: Option<(Setup, Vec<UnitResult>)> = None;
    while measured < args.seconds {
        // Each pass draws its graphs and unit seeds from its own sub-seed,
        // so a run averages over several inputs instead of riding on one.
        let setup = inproc::setup(&args.workload, mix(args.seed, setups.len() as u64));
        setups.push(setup.total_s);
        expand.push(setup.expand_s);
        graphs.push(setup.taskgraph_s);
        let pass = if args.trace {
            let (pass, run) = inproc::run_pass_traced(&setup, &mut tracer);
            if let Ok(results) = &pass.results {
                layers.push(pass_layers(&tracer, run, results));
            }
            pass
        } else {
            inproc::run_pass(&setup)
        };
        measured += pass.seconds;
        delivered += pass.delivered;
        sweeps.push(pass.sweep_s);
        check_pass(&mut report, setup.units.len(), &pass);
        if kept.is_none() {
            if let Ok(results) = pass.results {
                kept = Some((setup, results));
            }
        }
    }
    let rss = peak_rss_mib("self").unwrap_or(f64::NAN);
    let (setup, results) = kept.ok_or("no pass completed")?;
    kernel_probe(&mut report, &setup.units, args.seed);
    if args.trace {
        report.set("taskgraph.build_ms", median(&graphs) * 1e3);
        report.set("campaign.expand_ms", median(&expand) * 1e3);
        if layers.is_empty() {
            return Err("no traced pass completed".into());
        }
        set_pass_layers(&mut report, &layers);
        if setup.fig3_seed.is_some() {
            report.set("sweep.busy_s", median(&sweeps));
        }
        stand_in_probes(&mut report, args.seed);
        io_probe(&mut report, &results, tmp);
        let sea_dse = args
            .sea_dse
            .as_deref()
            .ok_or("--sea-dse is required for --trace 1")?;
        let specs = fleet::campaign_specs(args.seed, SERVE_PROBE_CAMPAIGNS);
        serve_layers(&mut report, sea_dse, tmp, &specs, &mut tracer)?;
        println!(
            "traced: {} passes, units_per_s {}",
            setups.len(),
            delivered as f64 / measured
        );
        write_trace(&tracer, args)?;
    } else {
        report.set("setup_s", median(&setups));
        report.set("units_per_s", delivered as f64 / measured);
        report.set("peak_rss_mib", rss);
    }
    Ok(report)
}

/// One fleet round: start, drive every campaign, read status, stop.
struct Round {
    setup_s: f64,
    seconds: f64,
    runs: Vec<CampaignRun>,
    status: Json,
    stop: FleetStop,
}

fn round(sea_dse: &Path, tmp: &Path, specs: &[String], traced: bool) -> Result<Round, String> {
    let dir = fleet::fresh_dir(tmp, "fleet").map_err(|e| e.to_string())?;
    let fleet = Fleet::start(sea_dse, &dir)?;
    let t = std::time::Instant::now();
    let runs = fleet::drive(&fleet.addr, specs, 2, traced);
    let seconds = t.elapsed().as_secs_f64();
    let status = fleet.status();
    let setup_s = fleet.setup_s;
    let stop = fleet.stop()?;
    Ok(Round {
        setup_s,
        seconds,
        runs,
        status: status?,
        stop,
    })
}

fn record_client_spans(tracer: &mut Tracer, runs: &[CampaignRun]) {
    for r in runs {
        let campaign = tracer.record("client.campaign", None, r.submitted, r.done, None);
        let mut prev = r.submitted;
        for (i, &t) in r.record_times.iter().enumerate() {
            let name = if i == 0 {
                "client.first_record"
            } else {
                "client.record"
            };
            tracer.record(name, Some(campaign), prev, t, None);
            prev = t;
        }
        tracer.record("client.report", Some(campaign), prev, r.done, None);
    }
}

/// The `serve.*` and `worker.*` rows from one checked loopback round over
/// `specs`.
fn serve_layers(
    report: &mut Report,
    sea_dse: &Path,
    tmp: &Path,
    specs: &[String],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let reference = checked_reference(report, specs, None)?;
    let r = round(sea_dse, tmp, specs, true)?;
    check_round(report, &reference, &r);
    record_client_spans(tracer, &r.runs);
    set_serve_layers(report, &[r]);
    Ok(())
}

fn set_serve_layers(report: &mut Report, rounds: &[Round]) {
    let (evaluated, served, _) = fleet::status_totals(&rounds[0].status);
    report.set("serve.evaluated", evaluated);
    report.set("serve.served_without_eval", served);
    let busy: Vec<f64> = rounds
        .iter()
        .map(|r| fleet::status_totals(&r.status).2 / r.seconds)
        .collect();
    report.set("serve.worker_busy_share", median(&busy));
    let status_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.runs.iter().filter_map(|c| c.status_s))
        .map(|s| s * 1e3)
        .collect();
    report.set("serve.status_ms", median(&status_ms));
    let delivered: usize = rounds
        .iter()
        .flat_map(|r| r.runs.iter().map(|c| c.record_times.len()))
        .sum();
    let evaluated_total: f64 = rounds
        .iter()
        .map(|r| fleet::status_totals(&r.status).0)
        .sum();
    let daemon_cpu: f64 = rounds.iter().map(|r| r.stop.daemon_cpu_s).sum();
    let worker_cpu: f64 = rounds.iter().map(|r| r.stop.worker_cpu_s).sum();
    report.set(
        "serve.daemon_cpu_ms_per_unit",
        daemon_cpu * 1e3 / delivered.max(1) as f64,
    );
    report.set(
        "worker.cpu_ms_per_unit",
        worker_cpu * 1e3 / evaluated_total.max(1.0),
    );
}

/// The in-process reference for the fleet: every campaign run through
/// `run_units` at one job, its JSONL report, and which of its lines fail
/// the output checks.
struct Reference {
    expected: Vec<String>,
    /// Per campaign: lines failing the output checks, and why.
    bad_lines: Vec<Vec<(usize, String)>>,
    distinct_units: usize,
    units: Vec<sea_campaign::Unit>,
    results: Vec<UnitResult>,
    layers: Vec<PassLayers>,
}

fn reference(specs: &[String], tracer: Option<&mut Tracer>) -> Result<Reference, String> {
    let mut tracer = tracer;
    let mut out = Reference {
        expected: Vec::new(),
        bad_lines: Vec::new(),
        distinct_units: 0,
        units: Vec::new(),
        results: Vec::new(),
        layers: Vec::new(),
    };
    let mut hashes = HashSet::new();
    for spec in specs {
        let units = parse_campaign(spec).map_err(|e| e.to_string())?.expand();
        hashes.extend(units.iter().map(unit_hash));
        let setup = Setup {
            units,
            taskgraph_s: 0.0,
            expand_s: 0.0,
            total_s: 0.0,
            fig3_seed: None,
        };
        let pass = match tracer.as_deref_mut() {
            Some(t) => {
                let (pass, run) = inproc::run_pass_traced(&setup, t);
                if let Ok(results) = &pass.results {
                    out.layers.push(pass_layers(t, run, results));
                }
                pass
            }
            None => inproc::run_pass(&setup),
        };
        let results = pass
            .results
            .map_err(|e| format!("the in-process reference run failed: {e}"))?;
        let records: Vec<_> = results.iter().map(|r| r.record.clone()).collect();
        out.expected.push(sea_campaign::jsonl_report(&records));
        out.bad_lines.push(
            results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| check::check_result(r).err().map(|e| (i, e)))
                .collect(),
        );
        out.units.extend(setup.units);
        out.results.extend(results);
    }
    out.distinct_units = hashes.len();
    Ok(out)
}

/// The reference run of `specs`, with the reasons its failing lines fail
/// noted in `report`.
fn checked_reference(
    report: &mut Report,
    specs: &[String],
    tracer: Option<&mut Tracer>,
) -> Result<Reference, String> {
    let reference = reference(specs, tracer)?;
    for (k, bad) in reference.bad_lines.iter().enumerate() {
        for (line, why) in bad {
            report
                .reasons
                .push(format!("campaign {k} line {line}: {why}"));
        }
    }
    Ok(reference)
}

/// Checks one fleet round against the reference, outside the measured
/// phase. Each campaign's streamed records and report are compared line
/// by line, and a line that differs or fails the output checks fails its
/// operation. A client error, a line beyond the reference's, or an
/// evaluation count other than the number of distinct unit hashes makes
/// the run incorrect.
fn check_round(report: &mut Report, reference: &Reference, r: &Round) {
    for run in &r.runs {
        let expected = &reference.expected[run.index];
        let mut differ: HashSet<usize> = check::differing_lines(expected, &run.records)
            .into_iter()
            .chain(check::differing_lines(expected, &run.report))
            .collect();
        let lines = expected.lines().count();
        if let Some(e) = &run.error {
            report.wrong(format!("campaign {}: {e}", run.index));
        } else if !differ.is_empty() {
            report.reasons.push(format!(
                "campaign {}: streamed records or report differ from the in-process run",
                run.index
            ));
        }
        if differ.iter().any(|&i| i >= lines) {
            report.wrong(format!(
                "campaign {}: more lines than the in-process run",
                run.index
            ));
        }
        differ.extend(reference.bad_lines[run.index].iter().map(|(i, _)| *i));
        report.attempted += lines;
        report.failed += differ.into_iter().filter(|&i| i < lines).count();
    }
    let (evaluated, _, _) = fleet::status_totals(&r.status);
    if evaluated != reference.distinct_units as f64 {
        report.wrong(format!(
            "the fleet evaluated {evaluated} units for {} distinct unit hashes",
            reference.distinct_units
        ));
    }
}

fn fleet_overlap(args: &Args, tmp: &Path) -> Result<Report, String> {
    let sea_dse = args
        .sea_dse
        .as_deref()
        .ok_or("--sea-dse is required for fleet-overlap")?;
    let mut report = Report::new();
    let mut tracer = Tracer::new();
    let specs = fleet::campaign_specs(args.seed, fleet::CAMPAIGNS);
    let reference = checked_reference(&mut report, &specs, args.trace.then_some(&mut tracer))?;

    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds {
        let r = round(sea_dse, tmp, &specs, args.trace)?;
        measured += r.seconds;
        check_round(&mut report, &reference, &r);
        rounds.push(r);
    }
    if args.trace {
        for r in &rounds {
            record_client_spans(&mut tracer, &r.runs);
        }
        set_serve_layers(&mut report, &rounds);
        let mut whole = PassLayers::default();
        for layers in reference.layers {
            whole.absorb(layers);
        }
        set_pass_layers(&mut report, &[whole]);
        fleet_setup_layers(&mut report, &specs)?;
        kernel_probe(&mut report, &reference.units, args.seed);
        stand_in_probes(&mut report, args.seed);
        io_probe(&mut report, &reference.results, tmp);
        let delivered: usize = rounds
            .iter()
            .flat_map(|r| r.runs.iter().map(|c| c.record_times.len()))
            .sum();
        println!(
            "traced: {} rounds, units_per_s {}",
            rounds.len(),
            delivered as f64 / measured
        );
        write_trace(&tracer, args)?;
    } else {
        kernel_probe(&mut report, &reference.units, args.seed);
        let runs = || rounds.iter().flat_map(|r| r.runs.iter());
        let delivered: usize = runs().map(|c| c.record_times.len()).sum();
        let cpu: f64 = rounds
            .iter()
            .map(|r| r.stop.daemon_cpu_s + r.stop.worker_cpu_s)
            .sum();
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let rss: Vec<f64> = rounds.iter().map(|r| r.stop.daemon_peak_rss_mib).collect();
        let campaign: Vec<f64> = runs()
            .map(|c| c.done.duration_since(c.submitted).as_secs_f64())
            .collect();
        let first: Vec<f64> = runs().map(CampaignRun::first_record_s).collect();
        report.set("setup_s", median(&setups));
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.runs.iter().map(|c| c.record_times.len()).sum::<usize>() as f64 / r.seconds)
            .collect();
        report.set("units_per_s", median(&rates));
        report.set("peak_rss_mib", median(&rss));
        report.set("campaign_p50_s", median(&campaign));
        report.set("first_record_p50_ms", median(&first) * 1e3);
        report.set("cpu_ms_per_unit", cpu * 1e3 / delivered.max(1) as f64);
    }
    Ok(report)
}

/// Graph builds and spec expansion for the fleet's campaign list, done
/// here the way the daemon does them on submission (median of five).
fn fleet_setup_layers(report: &mut Report, specs: &[String]) -> Result<(), String> {
    let (mut graphs, mut expand) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut units = Vec::new();
        for spec in specs {
            let expanded = parse_campaign(spec).map_err(|e| e.to_string())?.expand();
            for u in &expanded {
                std::hint::black_box(unit_hash(u));
            }
            units.extend(expanded);
        }
        expand.push(t.elapsed().as_secs_f64());
        let mut apps: Vec<String> = units.iter().map(|u| u.app.label()).collect();
        apps.sort();
        apps.dedup();
        let t = std::time::Instant::now();
        for label in &apps {
            let spec: sea_taskgraph::AppSpec = label.parse().map_err(|e| format!("{e}"))?;
            let app = AppRef::Spec(spec).build().map(|a| (*a).clone());
            let app = Arc::new(app.map_err(|e| e.to_string())?);
            std::hint::black_box(TaskGraphSoa::new(&app));
        }
        graphs.push(t.elapsed().as_secs_f64());
    }
    report.set("campaign.expand_ms", median(&expand) * 1e3);
    report.set("taskgraph.build_ms", median(&graphs) * 1e3);
    Ok(())
}

fn write_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"host\":{},\"workload\":{},\"seed\":{}}}",
        util::host_stamp(Path::new(".")),
        json_str(&args.workload),
        args.seed
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: {} spans in {}", tracer.spans.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", util::host_stamp(Path::new(".")));
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let outcome = if args.workload == "fleet-overlap" {
        fleet_overlap(&args, &tmp)
    } else {
        in_process(&args, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    match outcome {
        Ok(report) => {
            for why in &report.reasons {
                eprintln!("perfbench: {why}");
            }
            let mut table: Vec<(&str, &str)> = if args.trace {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.to_vec()
            };
            if !args.trace && args.workload == "fleet-overlap" {
                table.extend(FLEET_END_TO_END);
            }
            if let Some((name, _)) = table.iter().find(|(n, _)| !report.metrics.contains_key(n)) {
                eprintln!("perfbench: metric {name} was not measured");
                return ExitCode::from(1);
            }
            println!("{}", report.final_line(&table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
