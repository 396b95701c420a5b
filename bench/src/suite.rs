//! The one command: every workload, each repetition in a fresh child
//! process (this same binary in single-run mode), every metric printed
//! by name with its unit and its median / min / max over the
//! repetitions, every check counted, exit code non-zero on any failure.

use std::collections::BTreeMap;
use std::process::Command;

use slim::telemetry::JsonObj;

use crate::json::{self, Json};
use crate::report::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::{out_dir, Workload};

/// What the suite was asked to run.
pub struct SuiteArgs {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub reps: usize,
    /// Only the traced repetition of each workload.
    pub traced_only: bool,
    pub smoke: bool,
}

/// Where and on what the numbers were taken.
pub struct Stamp {
    pub nproc: usize,
    pub rustc: String,
    pub git: String,
    pub dirty: bool,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next().unwrap_or("").trim().to_string())
}

impl Stamp {
    pub fn take() -> Stamp {
        let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let git = |args: &[&str]| first_line(Command::new("git").args(args).current_dir(repo));
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            git: git(&["rev-parse", "HEAD"])
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into()),
            // Outside a git checkout there is nothing to be dirty against.
            dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
        }
    }

    pub fn json(&self) -> JsonObj {
        JsonObj::new()
            .u64("nproc", self.nproc as u64)
            .str("rustc", &self.rustc)
            .str("git", &self.git)
            .bool("dirty", self.dirty)
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(w: Workload, a: &SuiteArgs, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {} run: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("a {} run printed nothing ({})", w.name(), out.status))?;
    let doc = json::parse(line).map_err(|e| format!("a {} result line: {e}", w.name()))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        // A check failure also fails the child's exit code; either is
        // enough to fail the suite.
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && out.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: doc
            .get("metrics")
            .map(|m| {
                m.fields()
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Runs the suite; returns the process exit code.
pub fn run(a: &SuiteArgs) -> i32 {
    let stamp = Stamp::take();
    println!(
        "slim-bench: seed {} · {} s/run · {} reps{} · nproc {} · {} · git {}{}",
        a.seed,
        a.seconds,
        a.reps,
        if a.smoke { " · smoke sizes" } else { "" },
        stamp.nproc,
        stamp.rustc,
        stamp.git,
        if stamp.dirty { " (dirty)" } else { "" },
    );
    let mut ok = true;
    let mut rows: Vec<String> = Vec::new();
    for &w in &a.workloads {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let untraced = if a.traced_only { 0 } else { a.reps };
        for (i, traced) in (0..untraced)
            .map(|i| (i, false))
            .chain(std::iter::once((0, true)))
        {
            match run_child(w, a, traced) {
                Ok(r) => {
                    ok &= r.correct;
                    attempted += r.attempted;
                    failed += r.failed;
                    for (name, value) in r.metrics {
                        samples.entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    eprintln!(
                        "[bench] {} run {i} (traced: {traced}) failed: {e}",
                        w.name()
                    );
                    ok = false;
                }
            }
        }
        println!(
            "\n== {} — {attempted} operations attempted, {failed} failed",
            w.name()
        );
        println!(
            "{:<44} {:>9} {:>16} {:>16} {:>16} {:>3}",
            "metric", "unit", "median", "min", "max", "n"
        );
        // Registry order: end to end first, then layer by layer.
        let order = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in order {
            let Some(values) = samples.get(name) else {
                continue;
            };
            let s = Summary::of(values);
            // A layer the workload never touches reads zero; leave it
            // out of the table (it stays in the results file).
            if s.min == 0.0 && s.max == 0.0 {
                continue;
            }
            let unit = unit_of(name).unwrap_or("?");
            println!(
                "{name:<44} {unit:>9} {:>16.4} {:>16.4} {:>16.4} {:>3}",
                s.median, s.min, s.max, s.n
            );
            rows.push(
                JsonObj::new()
                    .str("workload", w.name())
                    .str("metric", name)
                    .str("unit", unit)
                    .f64("median", s.median)
                    .f64("min", s.min)
                    .f64("max", s.max)
                    .u64("n", s.n as u64)
                    .render(),
            );
        }
    }
    let path = out_dir().join(if a.smoke {
        "results-smoke.jsonl"
    } else {
        "results.jsonl"
    });
    let header = stamp
        .json()
        .u64("seed", a.seed)
        .u64("seconds", a.seconds)
        .u64("reps", a.reps as u64)
        .bool("smoke", a.smoke)
        .render();
    let body = std::iter::once(header)
        .chain(rows)
        .collect::<Vec<_>>()
        .join("\n");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, body + "\n")) {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => {
            eprintln!("[bench] writing {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    i32::from(!ok)
}
