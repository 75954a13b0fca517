//! Host-clock benchmark v1 of the pCLOUDS reproduction.
//!
//! ```text
//! pdc-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pdc-hostbench run       [--seed <n>] [--rounds <k>] [--smoke] [--scratch <dir>]
//! pdc-hostbench selfcheck [--seed <n>] [--rounds <k>] [--smoke] [--scratch <dir>]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, as many
//! fresh children as fit in `--seconds`, and as its last line of output one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `run` is the whole suite for a person to read;
//! `selfcheck` runs it twice and compares. See `README.md`.

mod host;
mod json;
mod probes;
mod report;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use runner::{Env, Plan, Rounds};
use spec::{Workload, WORKLOADS};

/// Seed of `run` and `selfcheck` when none is given: the generator's own
/// default.
const DEFAULT_SEED: u64 = 0x5eed_c10d;
/// Untraced rounds of `run` and `selfcheck`.
const DEFAULT_ROUNDS: usize = 5;
/// Input divisor of `--smoke`.
const SMOKE_DIV: usize = 20;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or(format!("unexpected argument `{key}`"))?;
            let value = if flags.contains(&name) {
                None
            } else {
                Some(it.next().ok_or(format!("`{key}` needs a value"))?.clone())
            };
            out.push((name.to_string(), value));
        }
        Ok(Options(out))
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(k, _)| k == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("`--{name} {v}` is not a valid number"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?.ok_or(format!("`--{name}` is required"))
    }

    /// `--seed`, decimal or hexadecimal with a `0x` prefix.
    fn seed(&self) -> Result<Option<u64>, String> {
        match self.value("seed").and_then(|v| v.strip_prefix("0x")) {
            Some(hex) => u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|_| format!("`--seed 0x{hex}` is not a valid number")),
            None => self.number("seed"),
        }
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn env_for(opts: &Options) -> Result<Env, String> {
    let out_dir = bench_dir().join("out");
    Ok(Env {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        scratch: opts
            .value("scratch")
            .map_or_else(|| out_dir.join("scratch"), PathBuf::from),
        out_dir,
    })
}

fn workload(opts: &Options) -> Result<Workload, String> {
    let name = opts.value("workload").ok_or("`--workload` is required")?;
    Workload::by_name(name).copied().ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {known:?}")
    })
}

/// `child`: run one workload in this process and print its report.
fn child(opts: &Options) -> Result<bool, String> {
    let args = workloads::ChildArgs {
        workload: workload(opts)?.scaled(opts.required("div")?),
        seed: opts.seed()?.ok_or("`--seed` is required")?,
        traced: opts.required::<u8>("traced")? != 0,
        scratch: PathBuf::from(opts.value("scratch").ok_or("`--scratch` is required")?),
    };
    let report = workloads::run_child(&args)?;
    println!("{}", report.to_json().to_line());
    Ok(true)
}

/// The contract's form: one workload, one result line.
fn driven(opts: &Options) -> Result<bool, String> {
    let traced = opts.required::<u8>("trace")? != 0;
    let plan = Plan {
        workloads: vec![workload(opts)?],
        seed: opts.seed()?.ok_or("`--seed` is required")?,
        // The traced form spends its time on probes and the traced round;
        // one untraced child gives it the baseline for `trace_overhead`.
        rounds: if traced {
            Rounds::Fixed(1)
        } else {
            Rounds::Budget(opts.required("seconds")?)
        },
        layers: traced,
        div: 1,
    };
    let outcome = runner::run_plan(&env_for(opts)?, &plan)?;
    runner::print_outcome(&outcome, &plan);
    println!("{}", runner::result_line(&outcome, traced)?);
    Ok(outcome.correct())
}

fn suite_plan(opts: &Options) -> Result<Plan, String> {
    let div = if opts.flag("smoke") { SMOKE_DIV } else { 1 };
    Ok(Plan {
        workloads: WORKLOADS.iter().map(|w| w.scaled(div)).collect(),
        seed: opts.seed()?.unwrap_or(DEFAULT_SEED),
        rounds: Rounds::Fixed(opts.number("rounds")?.unwrap_or(DEFAULT_ROUNDS)),
        layers: true,
        div,
    })
}

/// `git status --porcelain` of the repository, or `None` outside one.
fn git_status() -> Option<Vec<String>> {
    let repo = bench_dir().parent()?;
    let output = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["status", "--porcelain"])
        .output()
        .ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .map(str::to_string)
            .collect()
    })
}

/// Paths `git status` lists now and did not list `before`: what the run
/// left behind outside the ignored `benchmark/out/`.
fn newly_dirty(before: &Option<Vec<String>>) -> Vec<String> {
    match (before, git_status()) {
        (Some(before), Some(after)) => after
            .into_iter()
            .filter(|line| !before.contains(line))
            .collect(),
        _ => Vec::new(),
    }
}

/// `run`: the whole suite, every metric printed by name.
fn run(opts: &Options) -> Result<bool, String> {
    let plan = suite_plan(opts)?;
    let before = git_status();
    let outcome = runner::run_plan(&env_for(opts)?, &plan)?;
    runner::print_outcome(&outcome, &plan);
    let dirty = newly_dirty(&before);
    for line in &dirty {
        println!("FAILED CHECK the run left behind: {line}");
    }
    Ok(outcome.correct() && dirty.is_empty())
}

/// `selfcheck`: the suite twice on the same binary; prints, as a Markdown
/// table, the relative difference of the two medians next to its bound.
fn selfcheck(opts: &Options) -> Result<bool, String> {
    let plan = suite_plan(opts)?;
    let env = env_for(opts)?;
    let first = runner::run_plan(&env, &plan)?;
    let second = runner::run_plan(&env, &plan)?;
    let calib: Vec<f64> = first
        .health
        .calib_s
        .iter()
        .chain(&second.health.calib_s)
        .copied()
        .collect();
    let c = stats::summarize(&calib);
    println!(
        "nproc {}, seed {:#x}, 2 x {} rounds; host.calib_s median {:.4} (q1 {:.4}, q3 {:.4}, n {})",
        host::nproc(),
        plan.seed,
        first.rounds,
        c.median,
        c.q1,
        c.q3,
        c.n
    );
    if plan.div != 1 {
        println!("SMOKE RUN: NOT COMPARABLE");
    }
    println!("\n| workload | metric | first | second | difference | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut ok = first.correct() && second.correct();
    for a in runner::agreements(&first, &second) {
        // Simulated time is deterministic: any difference is a failure.
        let exact = a.metric.name == "virt_s";
        let pass = if exact {
            a.first.to_bits() == a.second.to_bits()
        } else {
            a.within_bound()
        };
        ok &= pass;
        println!(
            "| {} | {} | {:.6} | {:.6} | {:.2} % | {:.0} % | {} |",
            a.workload,
            a.metric.name,
            a.first,
            a.second,
            100.0 * a.difference(),
            if exact { 0.0 } else { 100.0 * a.metric.bound },
            if pass { "ok" } else { "EXCEEDS" }
        );
    }
    for failure in first.checks.iter().chain(&second.checks).chain(
        first
            .pools
            .iter()
            .chain(&second.pools)
            .flat_map(|p| &p.failures),
    ) {
        println!("FAILED {failure}");
    }
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => child(&Options::parse(&args[1..], &[])?),
        Some("run") => run(&Options::parse(&args[1..], &["smoke"])?),
        Some("selfcheck") => selfcheck(&Options::parse(&args[1..], &["smoke"])?),
        Some(first) if first.starts_with("--") => driven(&Options::parse(args, &[])?),
        _ => Err("usage: pdc-hostbench (--workload <name> --seed <n> --seconds <s> --trace <0|1> | run | selfcheck) [--seed <n>] [--rounds <k>] [--smoke] [--scratch <dir>]".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("pdc-hostbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_values_flags_and_hex() {
        let o = Options::parse(&args("--seed 0x5eedc10d --smoke --rounds 3"), &["smoke"]).unwrap();
        assert_eq!(o.seed().unwrap(), Some(0x5eed_c10d));
        assert_eq!(o.number::<usize>("rounds").unwrap(), Some(3));
        assert!(o.flag("smoke") && !o.flag("trace"));
        assert_eq!(o.number::<f64>("seconds").unwrap(), None);
        assert!(o.required::<f64>("seconds").is_err());
        assert!(Options::parse(&args("--seed"), &[]).is_err());
        assert!(Options::parse(&args("seed 1"), &[]).is_err());
        assert!(Options::parse(&args("--seed x"), &[])
            .unwrap()
            .seed()
            .is_err());
        assert!(Options::parse(&args("--seed 0xg"), &[])
            .unwrap()
            .seed()
            .is_err());
        assert_eq!(
            Options::parse(&args("--seed 7"), &[]).unwrap().seed(),
            Ok(Some(7))
        );
    }

    #[test]
    fn unknown_workloads_and_subcommands_are_refused() {
        assert!(dispatch(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(dispatch(&args("bogus")).is_err());
        assert!(dispatch(&[]).is_err());
    }
}
