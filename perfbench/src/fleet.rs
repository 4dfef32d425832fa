//! The `fleet-overlap` workload: a loopback `sea-dse daemon` with one
//! `sea-dse worker --jobs 1`, both the program's own processes, loaded by
//! two closed-loop clients that submit a seeded list of small, overlapping
//! campaigns through `sea_serve::submit_watch`.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::util::{cpu_seconds, peak_rss_mib, Json, Rng};

/// Campaigns per round and units per campaign; each campaign carries
/// half of its units over from the one before it.
pub const CAMPAIGNS: usize = 24;
pub const UNITS_PER_CAMPAIGN: usize = 24;

/// One unit line of the seeded universe the campaigns draw from.
#[derive(Clone)]
struct UnitLine {
    id: usize,
    objective: Option<&'static str>,
    app: String,
    cores: usize,
    seed: u64,
}

impl UnitLine {
    /// Unit `id` of the universe. Its shape — kind, graph size and core
    /// count — is a fixed function of `id`, so every seed's campaign list
    /// asks for the same amount of work; the seed picks the graphs and
    /// the annealing seeds.
    fn draw(id: usize, rng: &mut Rng) -> Self {
        // No Exp:1 (register-usage) baselines: on small random graphs
        // they miss the deadline for some graphs, so whether a unit fails
        // would hang on the seed.
        let objective = match id % 4 {
            2 => Some("tm"),
            3 => Some("tmr"),
            _ => None,
        };
        UnitLine {
            id,
            objective,
            app: format!("random:{}:{}", 20 + id % 11, rng.range(1, 999_999)),
            cores: 3 + (id / 4) % 2,
            seed: rng.next_u64() % 1_000_000,
        }
    }

    fn section(&self) -> String {
        let kind = match self.objective {
            Some(o) => format!("kind = \"baseline\"\nobjectives = \"{o}\""),
            None => "kind = \"optimize\"".into(),
        };
        format!(
            "[scenario]\nname = \"u{}\"\n{kind}\napps = \"{}\"\ncores = \"{}\"\nseeds = \"{}\"\n",
            self.id, self.app, self.cores, self.seed
        )
    }
}

/// The seeded campaign list: spec texts in submission order. Campaign
/// `k > 0` carries the units at odd positions of campaign `k - 1` and
/// interleaves them with as many fresh ones, so it shares half its units
/// with the campaign before it.
#[must_use]
pub fn campaign_specs(seed: u64, campaigns: usize) -> Vec<String> {
    let mut rng = Rng::new(crate::util::mix(seed, 0xF1EE7));
    let mut next_id = 0usize;
    let mut previous: Vec<UnitLine> = Vec::new();
    let mut specs = Vec::with_capacity(campaigns);
    for k in 0..campaigns {
        let carried: Vec<UnitLine> = previous.iter().skip(1).step_by(2).cloned().collect();
        let mut lines: Vec<UnitLine> = Vec::with_capacity(UNITS_PER_CAMPAIGN);
        for i in 0..UNITS_PER_CAMPAIGN {
            match carried.get(i / 2) {
                Some(c) if i % 2 == 0 => lines.push(c.clone()),
                _ => {
                    next_id += 1;
                    lines.push(UnitLine::draw(next_id, &mut rng));
                }
            }
        }
        let mut spec = format!("name = \"fleet-{k}\"\nbudget = \"smoke\"\n\n");
        for l in &lines {
            spec.push_str(&l.section());
            spec.push('\n');
        }
        specs.push(spec);
        previous = lines;
    }
    specs
}

/// A running daemon plus its worker.
pub struct Fleet {
    daemon: Child,
    worker: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
    /// Spawn of the daemon until the worker shows in `status`.
    pub setup_s: f64,
}

/// What a stopped fleet reported.
pub struct FleetStop {
    pub daemon_cpu_s: f64,
    pub worker_cpu_s: f64,
    pub daemon_peak_rss_mib: f64,
}

fn wait_with_timeout(child: &mut Child, what: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("the {what} did not exit after `stop`"));
            }
        }
    }
}

impl Fleet {
    /// Starts a daemon on an ephemeral loopback port with its cache and
    /// journals under `dir`, then one single-threaded worker, and waits
    /// until the worker is registered.
    ///
    /// # Errors
    ///
    /// Spawn failures, a daemon that never announces its port, or a
    /// worker that never registers.
    pub fn start(sea_dse: &Path, dir: &Path) -> Result<Fleet, String> {
        let t0 = Instant::now();
        let mut daemon = Command::new(sea_dse)
            .arg("daemon")
            .args(["--listen", "127.0.0.1:0", "--cache"])
            .arg(dir.join("cache"))
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start `{} daemon`: {e}", sea_dse.display()))?;
        let mut lines = BufReader::new(daemon.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.split("listening on ").nth(1) {
                        break addr.trim().to_string();
                    }
                }
                _ => {
                    let _ = daemon.kill();
                    let _ = daemon.wait();
                    return Err("the daemon exited before announcing its port".into());
                }
            }
        };
        // Keep reading so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        let worker = Command::new(sea_dse)
            .arg("worker")
            .args(["--connect", &addr, "--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        let worker = match worker {
            Ok(w) => w,
            Err(e) => {
                let _ = daemon.kill();
                let _ = daemon.wait();
                return Err(format!("cannot start the worker: {e}"));
            }
        };
        let mut fleet = Fleet {
            daemon,
            worker,
            addr,
            drain: Some(drain),
            setup_s: 0.0,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(status) = fleet.status() {
                if !status.get("workers").map_or(&[][..], Json::arr).is_empty() {
                    break;
                }
            }
            if Instant::now() > deadline {
                let _ = fleet.stop();
                return Err("the worker never registered with the daemon".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.setup_s = t0.elapsed().as_secs_f64();
        Ok(fleet)
    }

    /// The daemon's `status` document.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed JSON.
    pub fn status(&self) -> Result<Json, String> {
        let text = sea_serve::status(&self.addr).map_err(|e| e.to_string())?;
        Json::parse(&text)
    }

    /// Reads both processes' CPU time and the daemon's peak RSS, stops
    /// the daemon (which shuts the worker down) and waits for both.
    ///
    /// # Errors
    ///
    /// A process that does not exit; both are killed then.
    pub fn stop(mut self) -> Result<FleetStop, String> {
        let pid = |c: &Child| c.id().to_string();
        let out = FleetStop {
            daemon_cpu_s: cpu_seconds(&pid(&self.daemon)).unwrap_or(f64::NAN),
            worker_cpu_s: cpu_seconds(&pid(&self.worker)).unwrap_or(f64::NAN),
            daemon_peak_rss_mib: peak_rss_mib(&pid(&self.daemon)).unwrap_or(f64::NAN),
        };
        let stopped = sea_serve::stop(&self.addr).map_err(|e| e.to_string());
        let daemon = wait_with_timeout(&mut self.daemon, "daemon");
        let worker = wait_with_timeout(&mut self.worker, "worker");
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        stopped.and(daemon).and(worker).map(|()| out)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // A fleet abandoned on an error path must not outlive the run.
        for child in [&mut self.daemon, &mut self.worker] {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Writer that timestamps streamed record lines as they arrive.
struct Recorder {
    bytes: Vec<u8>,
    line_times: Vec<Instant>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.line_times
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One campaign as a client saw it.
pub struct CampaignRun {
    pub index: usize,
    pub submitted: Instant,
    pub done: Instant,
    pub record_times: Vec<Instant>,
    pub records: String,
    pub report: String,
    pub error: Option<String>,
    /// `status` round trip made right after the report (traced runs).
    pub status_s: Option<f64>,
}

impl CampaignRun {
    #[must_use]
    pub fn first_record_s(&self) -> f64 {
        self.record_times
            .first()
            .map_or(self.done, |t| *t)
            .duration_since(self.submitted)
            .as_secs_f64()
    }
}

/// Submits every spec through `clients` closed-loop connections: each
/// client takes the next campaign only after the previous one's report
/// arrived.
#[must_use]
pub fn drive(addr: &str, specs: &[String], clients: usize, traced: bool) -> Vec<CampaignRun> {
    let next = AtomicUsize::new(0);
    let runs = Mutex::new(Vec::with_capacity(specs.len()));
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(k) else { break };
                let mut records = Recorder {
                    bytes: Vec::new(),
                    line_times: Vec::new(),
                };
                let mut report = Vec::new();
                let submitted = Instant::now();
                let outcome = sea_serve::submit_watch(addr, spec, &mut records, &mut report);
                let done = Instant::now();
                let status_s = traced.then(|| {
                    let t = Instant::now();
                    let _ = sea_serve::status(addr);
                    t.elapsed().as_secs_f64()
                });
                let run = CampaignRun {
                    index: k,
                    submitted,
                    done,
                    record_times: records.line_times,
                    records: String::from_utf8_lossy(&records.bytes).into_owned(),
                    report: String::from_utf8_lossy(&report).into_owned(),
                    error: outcome.err().map(|e| e.to_string()),
                    status_s,
                };
                runs.lock()
                    .expect("no client panics holding the lock")
                    .push(run);
            });
        }
    });
    let mut runs = runs
        .into_inner()
        .expect("no client panics holding the lock");
    runs.sort_by_key(|r| r.index);
    runs
}

/// A fresh scratch directory for one fleet.
///
/// # Errors
///
/// Filesystem errors.
pub fn fresh_dir(base: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Fleet totals from a `status` document: (evaluated, deduped + cache
/// hits, Σ worker completed × mean unit seconds).
#[must_use]
pub fn status_totals(status: &Json) -> (f64, f64, f64) {
    let fleet = status.get("fleet");
    let num = |v: Option<&Json>| v.and_then(Json::num).unwrap_or(f64::NAN);
    let evaluated = num(fleet.and_then(|f| f.get("evaluated")));
    let deduped = num(fleet.and_then(|f| f.get("deduped")));
    let cache_hits: f64 = status
        .get("campaigns")
        .map_or(&[][..], Json::arr)
        .iter()
        .map(|c| num(c.get("cache_hits")))
        .sum();
    let busy_s: f64 = status
        .get("workers")
        .map_or(&[][..], Json::arr)
        .iter()
        .map(|w| num(w.get("completed")) * num(w.get("mean_unit_ms")) / 1e3)
        .sum();
    (evaluated, deduped + cache_hits, busy_s)
}
