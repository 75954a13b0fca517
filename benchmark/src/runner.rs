//! The runner: one single-threaded process that launches every workload
//! as a fresh child, round-robin, pools the samples, runs the probes and
//! the traced round, checks the outputs and prints every metric.
//!
//! Rank threads belong to the system under test (`p` is a workload input);
//! the runner adds none.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::probes;
use crate::report::ChildReport;
use crate::spans::{chrome_trace, Track};
use crate::spec::{EndToEnd, Workload, END_TO_END, PER_LAYER, VIRT_GROUPS};
use crate::stats::{fastest, median, summarize, Summary};
use crate::workloads::SCRATCH_PREFIX;

/// A child that has not exited after this long is killed and counted as
/// failed. The slowest child takes about 10 s on the builder's host.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// A budgeted run (`--seconds`) never pools fewer children than this.
const MIN_ROUNDS: usize = 3;

/// Where the runner finds and puts things.
pub struct Env {
    /// This executable; children are `exe child …`.
    pub exe: PathBuf,
    /// `benchmark/out/`: the only directory the benchmark writes to.
    pub out_dir: PathBuf,
    /// Parent of `train_file_p4`'s and the probes' scratch directories.
    pub scratch: PathBuf,
}

/// How many rounds to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rounds {
    /// Exactly this many.
    Fixed(usize),
    /// As many as end within this many seconds, at least [`MIN_ROUNDS`].
    Budget(f64),
}

/// What one invocation measures.
pub struct Plan {
    /// Workloads, run round-robin; already scaled if `--smoke`.
    pub workloads: Vec<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Untraced rounds.
    pub rounds: Rounds,
    /// Also run the calibration loop per round, the traced round and the
    /// probes (everything the per-layer metrics need).
    pub layers: bool,
    /// Input divisor of `--smoke` (1 = full size).
    pub div: usize,
}

/// Samples and facts of one workload, pooled over rounds.
pub struct Pool {
    /// The workload.
    pub workload: Workload,
    /// Children launched (untraced and traced).
    pub attempted: usize,
    /// Children that exited non-zero, timed out, failed a check or
    /// disagreed with an earlier child; their samples are dropped.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Reports of the successful untraced children.
    pub reports: Vec<ChildReport>,
    /// Report of the traced round's child.
    pub traced: Option<ChildReport>,
}

/// Run `program args…` as a child and parse the last line it prints.
/// The report must fit the 64 KiB pipe buffer: the runner only reads it
/// once the child has exited (a traced report is about 10 KB).
pub fn spawn_child(
    program: &Path,
    args: &[String],
    timeout: Duration,
) -> Result<ChildReport, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {} s", timeout.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let output = child
        .wait_with_output()
        .map_err(|e| format!("read output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    ChildReport::from_json(&Json::parse(line)?)
}

/// Outputs that must not differ between two children of one workload and
/// seed: simulated time bit for bit, the tree, every count.
fn same_outputs(first: &ChildReport, other: &ChildReport) -> Result<(), String> {
    if first.virt_s.to_bits() != other.virt_s.to_bits() {
        return Err(format!(
            "virt_s {} differs from the first child's {}",
            other.virt_s, first.virt_s
        ));
    }
    if first.train.outputs() != other.train.outputs() {
        return Err(format!(
            "train outputs {:?} differ from the first child's {:?}",
            other.train.outputs(),
            first.train.outputs()
        ));
    }
    Ok(())
}

impl Pool {
    /// Empty pool.
    pub fn new(workload: Workload) -> Pool {
        Pool {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            reports: Vec::new(),
            traced: None,
        }
    }

    /// Count one child; keep its samples only if it succeeded and agrees
    /// with the first successful child.
    pub fn record(&mut self, result: Result<ChildReport, String>) {
        self.attempted += 1;
        let checked =
            result.and_then(
                |report| match self.reports.first().or(self.traced.as_ref()) {
                    Some(first) => same_outputs(first, &report).map(|()| report),
                    None => Ok(report),
                },
            );
        match checked {
            Ok(report) if report.traced => self.traced = Some(report),
            Ok(report) => self.reports.push(report),
            Err(why) => {
                self.failed += 1;
                self.failures.push(format!(
                    "{} child {}: {why}",
                    self.workload.name, self.attempted
                ));
            }
        }
    }

    fn pooled(&self, samples: impl Fn(&ChildReport) -> &[f64]) -> Vec<f64> {
        self.reports
            .iter()
            .flat_map(|r| samples(r).iter().copied())
            .collect()
    }

    fn per_child(&self, value: impl Fn(&ChildReport) -> f64) -> Vec<f64> {
        self.reports.iter().map(value).collect()
    }
}

/// One printed metric.
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the best of N for an end-to-end time or rate,
    /// the median for any other timing, the number itself for a count or a
    /// simulated time.
    pub value: f64,
    /// Median, quartiles and tail of the pooled samples the value is
    /// taken from.
    pub spread: Option<Summary>,
}

fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Row> {
    (!samples.is_empty()).then(|| {
        let spread = summarize(samples);
        Row {
            name,
            unit,
            value: spread.median,
            spread: Some(spread),
        }
    })
}

/// A time reported as the **fastest** of its pooled samples. On a shared
/// machine interference only ever slows a repetition down, in bursts; the
/// best of N is by far the steadiest estimate of what the code costs
/// (`NOISE.md`: over 17 windows of seven `train` calls the minimum spread
/// by 3 %, the median by 12.5 %). Median and quartiles are kept beside it.
fn best(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Row> {
    timing(name, unit, samples).map(|row| Row {
        value: fastest(samples),
        ..row
    })
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Option<Row> {
    Some(Row {
        name,
        unit,
        value,
        spread: None,
    })
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}

/// The four end-to-end metrics of a pool, from its untraced children only.
/// Empty if no child succeeded.
pub fn end_to_end_rows(pool: &Pool) -> Vec<Row> {
    let Some(first) = pool.reports.first() else {
        return Vec::new();
    };
    let records = pool.workload.records_per_rep() as f64;
    // Summarise the times, then turn them into rates: the best rate is
    // the rate of the fastest time, the median rate that of the median
    // time, the quartiles swap, and the tail is the rate at the slow tail
    // of the time.
    let walls = pool.pooled(|r| &r.timed_s);
    let wall = summarize(&walls);
    let rate = Row {
        name: "rec_per_s",
        unit: "1/s",
        value: records / fastest(&walls),
        spread: Some(Summary {
            n: wall.n,
            q1: records / wall.q3,
            median: records / wall.median,
            q3: records / wall.q1,
            tail: wall.tail.map(|(pct, seconds)| (pct, records / seconds)),
        }),
    };
    [
        best("setup_s", "s", &pool.pooled(|r| &r.setup_s)),
        Some(rate),
        timing("peak_rss_mb", "MB", &pool.per_child(|r| r.peak_rss_mb)),
        exact("virt_s", "s", first.virt_s),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Host health of one invocation.
#[derive(Default)]
pub struct Health {
    /// One calibration time per round.
    pub calib_s: Vec<f64>,
    /// Load average before the first child.
    pub loadavg_start: f64,
    /// Load average after the last probe.
    pub loadavg_end: f64,
}

/// Everything one invocation produced.
pub struct Outcome {
    /// One pool per workload, in plan order.
    pub pools: Vec<Pool>,
    /// Probe results, empty unless the plan asked for layers.
    pub probes: Vec<(&'static str, f64)>,
    /// Host health.
    pub health: Health,
    /// Failed checks that belong to no single child.
    pub checks: Vec<String>,
    /// Untraced rounds completed.
    pub rounds: usize,
}

impl Outcome {
    /// No child failed and no check failed.
    pub fn correct(&self) -> bool {
        self.checks.is_empty()
            && self
                .pools
                .iter()
                .all(|p| p.failed == 0 && !p.reports.is_empty())
    }
}

/// The workload-scoped per-layer metrics: the workload's `train` calls,
/// their counts, the traced round's simulated self-seconds and what the
/// tracing cost. Needs at least one untraced child and the traced child.
fn workload_layer_rows(pool: &Pool) -> Vec<Row> {
    let (Some(first), Some(traced)) = (pool.reports.first(), pool.traced.as_ref()) else {
        return Vec::new();
    };
    let walls = pool.pooled(|r| &r.train.wall_s);
    let wall = summarize(&walls);
    let t = &first.train;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let mut rows: Vec<Option<Row>> = vec![
        exact("pclouds.train.wall_s.p50", "s", wall.median),
        exact("pclouds.train.wall_s.q1", "s", wall.q1),
        exact("pclouds.train.wall_s.q3", "s", wall.q3),
        timing(
            "pclouds.train.cpu_s",
            "s",
            &pool.per_child(|r| r.train.cpu_s / r.train.wall_s.len() as f64),
        ),
        timing(
            "pclouds.train.cores_busy",
            "count",
            &pool.per_child(|r| r.train.cpu_s / r.train.wall_s.iter().sum::<f64>()),
        ),
        exact("cgm.msgs", "count", t.msgs as f64),
        exact("cgm.bytes_mb", "MB", mb(t.bytes)),
        exact(
            "cgm.host_us_per_msg",
            "us",
            wall.median * 1e6 / t.msgs as f64,
        ),
        exact("pario.disk_read_mb", "MB", mb(t.disk_read_bytes)),
        exact("pario.disk_write_mb", "MB", mb(t.disk_write_bytes)),
        exact("pclouds.tree_nodes", "count", t.tree_nodes as f64),
        exact("pclouds.tree_depth", "count", t.tree_depth as f64),
    ];
    for (metric, _) in VIRT_GROUPS {
        let seconds = traced
            .virt_groups
            .iter()
            .find(|(m, _)| m == metric)
            .map_or(0.0, |(_, s)| *s);
        rows.push(exact(metric, "s", seconds));
    }
    rows.push(exact(
        "trace_overhead",
        "ratio",
        median(&traced.timed_s) / median(&pool.pooled(|r| &r.timed_s)),
    ));
    rows.into_iter().flatten().collect()
}

/// The per-layer metrics that are the same on every workload: the probes
/// and the host's health.
pub fn probe_rows(outcome: &Outcome) -> Vec<Row> {
    let probes = outcome
        .probes
        .iter()
        .map(|&(name, value)| exact(name, unit_of(name), value));
    let health = [
        exact("host.nproc", "count", host::nproc() as f64),
        timing("host.calib_s", "s", &outcome.health.calib_s),
        exact("host.loadavg_start", "count", outcome.health.loadavg_start),
        exact("host.loadavg_end", "count", outcome.health.loadavg_end),
    ];
    probes.chain(health).flatten().collect()
}

fn child_args(w: &Workload, plan: &Plan, env: &Env, traced: bool) -> Vec<String> {
    vec![
        "child".into(),
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        plan.seed.to_string(),
        "--traced".into(),
        u8::from(traced).to_string(),
        "--div".into(),
        plan.div.to_string(),
        "--scratch".into(),
        env.scratch.display().to_string(),
    ]
}

/// Remove what a killed child may have left under the scratch directory.
pub fn sweep_scratch(scratch: &Path) {
    let Ok(entries) = std::fs::read_dir(scratch) else {
        return;
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with(SCRATCH_PREFIX)
        {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Run the plan: rounds, then (with `layers`) the traced round and the
/// probes. Writes `latest.json` and, with `layers`, `trace.json`.
pub fn run_plan(env: &Env, plan: &Plan) -> Result<Outcome, String> {
    std::fs::create_dir_all(&env.scratch)
        .map_err(|e| format!("create {}: {e}", env.scratch.display()))?;
    let started = Instant::now();
    let mut outcome = Outcome {
        pools: plan.workloads.iter().map(|w| Pool::new(*w)).collect(),
        probes: Vec::new(),
        health: Health {
            loadavg_start: host::loadavg(),
            ..Health::default()
        },
        checks: Vec::new(),
        rounds: 0,
    };

    let mut longest_round = 0.0f64;
    loop {
        let more = match plan.rounds {
            Rounds::Fixed(n) => outcome.rounds < n,
            Rounds::Budget(seconds) => {
                outcome.rounds < MIN_ROUNDS
                    || started.elapsed().as_secs_f64() + longest_round <= seconds
            }
        };
        if !more {
            break;
        }
        let round_started = Instant::now();
        if plan.layers {
            outcome.health.calib_s.push(host::calibrate());
        }
        // Round-robin: a slow phase of the machine falls on every workload.
        for pool in &mut outcome.pools {
            let args = child_args(&pool.workload, plan, env, false);
            pool.record(spawn_child(&env.exe, &args, CHILD_TIMEOUT));
        }
        longest_round = longest_round.max(round_started.elapsed().as_secs_f64());
        outcome.rounds += 1;
    }

    let mut tracks = Vec::new();
    if plan.layers {
        for pool in &mut outcome.pools {
            let args = child_args(&pool.workload, plan, env, true);
            pool.record(spawn_child(&env.exe, &args, CHILD_TIMEOUT));
            if let Some(traced) = &pool.traced {
                tracks.push(Track {
                    workload: pool.workload.name.to_string(),
                    round: outcome.rounds,
                    pid: traced.pid,
                    spans: traced.host_spans.clone(),
                });
            }
        }
        outcome.probes = probes::run_all(plan.seed, &env.scratch, plan.div)?;
    }
    outcome.health.loadavg_end = host::loadavg();
    sweep_scratch(&env.scratch);

    // The file farm must build the very tree the RAM farm builds.
    let first_of = |name: &str| {
        outcome
            .pools
            .iter()
            .find(|p| p.workload.name == name)
            .and_then(|p| p.reports.first())
    };
    if let (Some(mem), Some(file)) = (first_of("train_mem_p4"), first_of("train_file_p4")) {
        if let Err(why) = same_outputs(mem, file) {
            outcome
                .checks
                .push(format!("train_file_p4 against train_mem_p4: {why}"));
        }
    }

    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("create {}: {e}", env.out_dir.display()))?;
    let write = |name: &str, doc: &Json| {
        let path = env.out_dir.join(name);
        std::fs::write(&path, doc.to_line() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("latest.json", &latest_json(&outcome, plan))?;
    if plan.layers {
        write("trace.json", &chrome_trace(&tracks))?;
    }
    Ok(outcome)
}

fn row_json(row: &Row) -> (&'static str, Json) {
    let mut members = vec![
        ("value", Json::Num(row.value)),
        ("unit", Json::str(row.unit)),
    ];
    if let Some(s) = &row.spread {
        members.extend([
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("n", Json::Num(s.n as f64)),
        ]);
        if let Some((pct, value)) = s.tail {
            members.extend([("tail_pct", Json::Num(pct)), ("tail", Json::Num(value))]);
        }
    }
    (row.name, Json::obj(members))
}

/// `latest.json`: every metric of the invocation, machine-readable.
fn latest_json(outcome: &Outcome, plan: &Plan) -> Json {
    let workloads = outcome.pools.iter().map(|pool| {
        let scratch_fs = pool.reports.first().map_or("", |r| r.scratch_fs.as_str());
        (
            pool.workload.name,
            Json::obj([
                ("ops_attempted", Json::Num(pool.attempted as f64)),
                ("ops_failed", Json::Num(pool.failed as f64)),
                (
                    "failures",
                    Json::Arr(pool.failures.iter().map(Json::str).collect()),
                ),
                ("scratch_fs", Json::str(scratch_fs)),
                (
                    "end_to_end",
                    Json::obj(end_to_end_rows(pool).iter().map(row_json)),
                ),
                (
                    "per_layer",
                    Json::obj(workload_layer_rows(pool).iter().map(row_json)),
                ),
            ]),
        )
    });
    Json::obj([
        ("schema", Json::str("pdc-hostbench/1")),
        ("seed", Json::str(format!("{:#x}", plan.seed))),
        ("comparable", Json::Bool(plan.div == 1)),
        ("rounds", Json::Num(outcome.rounds as f64)),
        ("correct", Json::Bool(outcome.correct())),
        (
            "checks",
            Json::Arr(outcome.checks.iter().map(Json::str).collect()),
        ),
        ("workloads", Json::obj(workloads)),
        (
            "probes",
            Json::obj(probe_rows(outcome).iter().map(row_json)),
        ),
    ])
}

fn print_row(row: &Row) {
    let spread = row.spread.as_ref().map_or(String::new(), |s| {
        let tail = s
            .tail
            .map_or(String::new(), |(pct, v)| format!("  p{pct:.1} {v:.6}"));
        format!(
            "  median {:.6}  q1 {:.6}  q3 {:.6}  n {}{tail}",
            s.median, s.q1, s.q3, s.n
        )
    });
    println!(
        "  {:<36} {:>16.6} {:<6}{spread}",
        row.name, row.value, row.unit
    );
}

/// Print every metric by name, workload by workload.
pub fn print_outcome(outcome: &Outcome, plan: &Plan) {
    if plan.div != 1 {
        println!(
            "SMOKE RUN: every record count divided by {}; NOT COMPARABLE with full-size numbers",
            plan.div
        );
    }
    println!(
        "seed {:#x}, {} untraced round(s), nproc {}",
        plan.seed,
        outcome.rounds,
        host::nproc()
    );
    for pool in &outcome.pools {
        println!(
            "\n{}  ops_attempted {}  ops_failed {}",
            pool.workload.name, pool.attempted, pool.failed
        );
        if let Some(fs) = pool
            .reports
            .first()
            .map(|r| r.scratch_fs.as_str())
            .filter(|fs| !fs.is_empty())
        {
            println!("  scratch_fs {fs}");
        }
        end_to_end_rows(pool).iter().for_each(print_row);
        workload_layer_rows(pool).iter().for_each(print_row);
        for failure in &pool.failures {
            println!("  FAILED {failure}");
        }
    }
    if plan.layers {
        println!("\nprobes and host health (the same on every workload)");
        probe_rows(outcome).iter().for_each(print_row);
    }
    for check in &outcome.checks {
        println!("FAILED CHECK {check}");
    }
}

/// The last line of a `--workload … --trace 0|1` invocation: every
/// end-to-end metric without tracing, every per-layer metric with it.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let pool = outcome.pools.first().ok_or("no workload ran")?;
    let (rows, expected): (Vec<Row>, Vec<&str>) = if traced {
        let mut rows = probe_rows(outcome);
        rows.extend(workload_layer_rows(pool));
        (rows, PER_LAYER.iter().map(|m| m.0).collect())
    } else {
        (
            end_to_end_rows(pool),
            END_TO_END.iter().map(|m| m.name).collect(),
        )
    };
    let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    if names != expected {
        return Err(format!(
            "metrics {names:?} are not the contract's {expected:?}; failures: {:?}",
            pool.failures
        ));
    }
    let metrics = rows.iter().map(|r| {
        (
            r.name,
            Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]),
        )
    });
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(pool.attempted as f64)),
        ("failed", Json::Num(pool.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line())
}

/// One row of `selfcheck`: the same metric from two sets of runs of the
/// same binary.
pub struct Agreement {
    /// Workload name.
    pub workload: &'static str,
    /// The metric and its bound.
    pub metric: EndToEnd,
    /// Median of the first set.
    pub first: f64,
    /// Median of the second set.
    pub second: f64,
}

impl Agreement {
    /// `|second − first| / first`.
    pub fn difference(&self) -> f64 {
        ((self.second - self.first) / self.first).abs()
    }

    /// Within the metric's bound — in either direction: the code is the
    /// same, so a gain is as wrong as a loss.
    pub fn within_bound(&self) -> bool {
        self.difference() <= self.metric.bound
    }
}

/// Compare two outcomes of the same plan, metric by metric.
pub fn agreements(a: &Outcome, b: &Outcome) -> Vec<Agreement> {
    let mut out = Vec::new();
    for (pa, pb) in a.pools.iter().zip(&b.pools) {
        let (ra, rb) = (end_to_end_rows(pa), end_to_end_rows(pb));
        for (metric, (x, y)) in END_TO_END.iter().zip(ra.iter().zip(&rb)) {
            out.push(Agreement {
                workload: pa.workload.name,
                metric: *metric,
                first: x.value,
                second: y.value,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TrainFacts;
    use crate::spec::WORKLOADS;

    fn report(timed: f64, virt: f64) -> ChildReport {
        ChildReport {
            workload: "train_mem_p4".into(),
            setup_s: vec![0.2, 0.25],
            timed_s: vec![timed],
            virt_s: virt,
            peak_rss_mb: 100.0,
            accuracy: 0.99,
            train: TrainFacts {
                wall_s: vec![timed],
                cpu_s: 1.8 * timed,
                virt_s: virt,
                msgs: 10,
                tree_hash: 7,
                ..TrainFacts::default()
            },
            ..ChildReport::default()
        }
    }

    fn sh(script: &str) -> Result<ChildReport, String> {
        spawn_child(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            Duration::from_millis(300),
        )
    }

    #[test]
    fn a_child_that_exits_non_zero_fails_and_contributes_no_sample() {
        let mut pool = Pool::new(WORKLOADS[0]);
        pool.record(Ok(report(4.0, 50.0)));
        pool.record(sh("echo '{}'; exit 3"));
        pool.record(sh("exec sleep 30"));
        pool.record(sh("echo not json"));
        assert_eq!((pool.attempted, pool.failed, pool.reports.len()), (4, 3, 1));
        assert!(pool.failures[0].contains("exit"), "{:?}", pool.failures);
        assert!(
            pool.failures[1].contains("timed out"),
            "{:?}",
            pool.failures
        );
        let rows = end_to_end_rows(&pool);
        assert_eq!(
            rows[1].spread.as_ref().map(|s| s.n),
            Some(1),
            "only the good child's sample is pooled"
        );
    }

    #[test]
    fn a_well_formed_child_line_is_parsed() {
        let line = report(4.0, 50.0).to_json().to_line();
        let parsed = sh(&format!("echo noise; echo '{line}'")).unwrap();
        assert_eq!(parsed, report(4.0, 50.0));
    }

    #[test]
    fn a_child_that_disagrees_with_the_first_is_failed() {
        let mut pool = Pool::new(WORKLOADS[0]);
        pool.record(Ok(report(4.0, 50.0)));
        pool.record(Ok(report(4.4, 50.0)));
        pool.record(Ok(report(4.2, f64::from_bits(50.0f64.to_bits() + 1))));
        let mut other_tree = report(4.1, 50.0);
        other_tree.train.tree_hash = 8;
        pool.record(Ok(other_tree));
        assert_eq!((pool.attempted, pool.failed, pool.reports.len()), (4, 2, 2));
    }

    #[test]
    fn end_to_end_times_are_the_best_of_the_pooled_samples() {
        let mut pool = Pool::new(WORKLOADS[0]);
        for timed in [4.0, 5.0, 3.0] {
            pool.record(Ok(report(timed, 50.0)));
        }
        let rows = end_to_end_rows(&pool);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["setup_s", "rec_per_s", "peak_rss_mb", "virt_s"]);
        assert_eq!(rows[0].spread.as_ref().unwrap().n, 6);
        assert_eq!(rows[0].value, 0.2, "set-up: the best of the pooled repeats");
        assert_eq!(rows[1].value, 1_800_000.0 / 3.0, "rate of the fastest call");
        assert_eq!(
            rows[1].spread.as_ref().unwrap().median,
            1_800_000.0 / 4.0,
            "the median stays beside it"
        );
        assert_eq!(rows[3].value, 50.0);
        assert!(end_to_end_rows(&Pool::new(WORKLOADS[0])).is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut pool = Pool::new(WORKLOADS[0]);
        pool.record(Ok(report(4.0, 50.0)));
        let outcome = Outcome {
            pools: vec![pool],
            probes: Vec::new(),
            health: Health::default(),
            checks: Vec::new(),
            rounds: 1,
        };
        let line = result_line(&outcome, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        assert!(
            result_line(&outcome, true).is_err(),
            "no probes and no traced child: not every per-layer metric"
        );
    }

    #[test]
    fn agreement_is_two_sided() {
        let a = Agreement {
            workload: "w",
            metric: END_TO_END[1],
            first: 100.0,
            second: 100.0 * (1.0 + END_TO_END[1].bound) + 1.0,
        };
        assert!(
            !a.within_bound(),
            "a gain past the bound from identical code is noise, not a gain"
        );
        assert!(Agreement {
            second: 100.0 * (1.0 - END_TO_END[1].bound) + 1.0,
            ..a
        }
        .within_bound());
    }
}
