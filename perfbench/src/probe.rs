//! Layer probes: timed calls into one layer's public functions on the
//! run's own inputs and outputs.
//!
//! * The kernel probe drives a seeded stream of single-task moves through
//!   the scratch `Evaluator` and the delta `IncrementalEvaluator` and
//!   requires bitwise-equal summaries.
//! * The persistence and wire probe appends, stores, loads and encodes
//!   the run's own units and results.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sea_arch::{Architecture, CoreId, ScalingVector};
use sea_campaign::{
    encode_result, level_set, unit_hash, units_hash, Cache, JournalWriter, UnitResult,
};
use sea_dist::frame::{read_frame, write_frame, FrameKind};
use sea_dist::wire::{decode_result_body, decode_work, encode_result_body, encode_work};
use sea_sched::metrics::EvalContext;
use sea_sched::{
    summaries_bitwise_eq, tm_lower_bound, Evaluator, IncrementalEvaluator, Mapping, Move,
};
use sea_taskgraph::{Application, TaskGraphSoa, TaskId};

use crate::util::{median, mix, Rng};

/// Kernel-probe totals over every (application, architecture) pair.
#[derive(Default)]
pub struct KernelProbe {
    pub moves: u64,
    pub move_ns: f64,
    pub full_evals: u64,
    pub full_ns: f64,
    pub bounds: u64,
    pub bound_ns: f64,
    pub replayed_tasks: u64,
    pub replay_window: u64,
    pub fallback: u64,
    /// Moves whose incremental summary differed from the full one.
    pub mismatches: u64,
}

/// Share of moves the seeded stream accepts (the rest are rejected and
/// undone), in per mille.
const ACCEPT_PER_MILLE: usize = 300;

impl KernelProbe {
    /// Probes one pair with `moves` moves at each of two scalings: all
    /// cores nominal, and a seeded random one.
    ///
    /// # Panics
    ///
    /// Panics when the evaluators reject shapes the probe built itself.
    pub fn pair(
        &mut self,
        app: &Arc<Application>,
        cores: usize,
        levels: usize,
        moves: usize,
        seed: u64,
    ) {
        let arch = Architecture::arm7_calibrated(cores, level_set(levels));
        let soa = TaskGraphSoa::shared(app);
        let ctx = EvalContext::new(app, &arch);
        let mut full = Evaluator::with_soa(ctx.clone(), Arc::clone(&soa));
        let mut inc = IncrementalEvaluator::with_soa(ctx, Arc::clone(&soa)).with_enabled(true);
        let mut rng = Rng::new(seed);
        let n = app.graph().len();
        let random: Vec<u8> = (0..cores).map(|_| rng.range(1, levels) as u8).collect();
        for coefficients in [vec![1u8; cores], random] {
            let scaling =
                ScalingVector::try_new(coefficients, &arch).expect("coefficients in range");
            let t = Instant::now();
            for _ in 0..64 {
                std::hint::black_box(tm_lower_bound(&soa, app.mode(), &arch, &scaling));
            }
            self.bound_ns += t.elapsed().as_nanos() as f64;
            self.bounds += 64;

            let assign = (0..n).map(|t| CoreId::new(t % cores)).collect();
            let mut mapping = Mapping::try_new(assign, cores).expect("a valid round-robin mapping");
            inc.prime(&mapping, &scaling).expect("shapes match");
            for _ in 0..moves {
                let task = TaskId::new(rng.below(n));
                let from = mapping.core_of(task).index();
                let to = (from + 1 + rng.below(cores - 1)) % cores;
                let mv = Move::Relocate {
                    task,
                    to: CoreId::new(to),
                };
                let undo = mapping.apply(mv);
                let accept = rng.below(1000) < ACCEPT_PER_MILLE;

                let t = Instant::now();
                let a = inc
                    .evaluate_move(&mapping, &scaling, mv)
                    .expect("shapes match");
                if accept {
                    inc.accept();
                } else {
                    inc.reject();
                }
                self.move_ns += t.elapsed().as_nanos() as f64;
                self.moves += 1;

                let t = Instant::now();
                let b = full.evaluate(&mapping, &scaling).expect("shapes match");
                self.full_ns += t.elapsed().as_nanos() as f64;
                self.full_evals += 1;

                if !summaries_bitwise_eq(&a, &b) {
                    self.mismatches += 1;
                }
                if !accept {
                    mapping.apply(undo);
                }
            }
        }
        let stats = inc.stats();
        self.replayed_tasks += stats.replayed_tasks;
        self.replay_window += stats.replay_window;
        self.fallback += stats.fallback;
    }
}

/// Runs the kernel probe over the distinct (application, cores, levels)
/// triples of `results`' units, spreading a fixed move budget.
#[must_use]
pub fn kernel(pairs: &[(Arc<Application>, usize, usize)], seed: u64) -> KernelProbe {
    let mut probe = KernelProbe::default();
    let moves = (24_000 / pairs.len().max(1)).max(200);
    for (k, (app, cores, levels)) in pairs.iter().enumerate() {
        probe.pair(app, *cores, *levels, moves, mix(seed, 0x9000 + k as u64));
    }
    probe
}

/// Persistence and wire costs measured on the run's own results.
pub struct IoProbe {
    pub journal_append_us: f64,
    pub cache_store_us: f64,
    pub cache_hit_us: f64,
    pub cache_miss_us: f64,
    pub cache_entry_bytes: f64,
    pub wire_work_bytes: f64,
    pub wire_result_bytes: f64,
    pub wire_roundtrip_us: f64,
    /// Loads that missed a stored entry or decoded to another record.
    pub faults: usize,
}

/// Journals, caches, loads and round-trips every result through the
/// frame codec, in a scratch directory under `dir`.
///
/// # Errors
///
/// Filesystem errors.
pub fn io(results: &[UnitResult], dir: &Path) -> std::io::Result<IoProbe> {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let units: Vec<_> = results.iter().map(|r| r.unit.clone()).collect();
    let mut journal = JournalWriter::create(
        &dir.join("probe.journal"),
        "probe",
        units_hash(&units),
        units.len(),
    )?;
    let cache = Cache::open(dir.join("probe-cache"))?;
    let empty = Cache::open(dir.join("probe-empty"))?;
    let (mut append, mut store, mut hit, mut miss, mut trip) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut entry_bytes, mut work_bytes, mut result_bytes) = (0usize, 0usize, 0usize);
    let mut faults = 0usize;
    for (i, r) in results.iter().enumerate() {
        let hash = unit_hash(&r.unit);
        let t = Instant::now();
        journal.append(i, hash, &r.record)?;
        append.push(us(t));

        let t = Instant::now();
        cache.store(r)?;
        store.push(us(t));

        let t = Instant::now();
        let loaded = cache.load(&r.unit);
        hit.push(us(t));
        if loaded.map(|l| sea_campaign::json_record(&l.record))
            != Some(sea_campaign::json_record(&r.record))
        {
            faults += 1;
        }

        let t = Instant::now();
        if empty.load(&r.unit).is_some() {
            faults += 1;
        }
        miss.push(us(t));

        let entry = encode_result(r);
        entry_bytes += entry.len();
        let work = encode_work(i, hash, &r.unit);
        let body = encode_result_body(i, hash, &entry);
        work_bytes += work.len();
        result_bytes += body.len();

        let t = Instant::now();
        let mut buf = Vec::with_capacity(work.len() + body.len() + 16);
        write_frame(&mut buf, FrameKind::Work, work.as_bytes())?;
        write_frame(&mut buf, FrameKind::Result, body.as_bytes())?;
        let mut src = &buf[..];
        let ok = (|| {
            let work_frame = read_frame(&mut src).ok()?;
            let (_, _, unit) = decode_work(work_frame.text().ok()?).ok()?;
            let result_frame = read_frame(&mut src).ok()?;
            let (_, _, entry) = decode_result_body(result_frame.text().ok()?).ok()?;
            sea_campaign::decode_result(entry, &unit).ok()
        })();
        trip.push(us(t));
        if ok.is_none() {
            faults += 1;
        }
    }
    let n = results.len().max(1) as f64;
    Ok(IoProbe {
        journal_append_us: median(&append),
        cache_store_us: median(&store),
        cache_hit_us: median(&hit),
        cache_miss_us: median(&miss),
        cache_entry_bytes: entry_bytes as f64 / n,
        wire_work_bytes: work_bytes as f64 / n,
        wire_result_bytes: result_bytes as f64 / n,
        wire_roundtrip_us: median(&trip),
        faults,
    })
}
