//! The SLIM benchmark: five named workloads, end-to-end metrics with
//! tracing off, per-layer attribution measured from outside.
//!
//! Two faces of one binary. With `--trace 0|1` it is a single run of one
//! workload whose last line of standard output is one JSON result
//! object (the form a benchmark driver calls). Without it, it is the
//! suite: every workload, each repetition a fresh child process in
//! single-run form, every metric printed by name. See `README.md`.

mod batch;
mod json;
mod probes;
mod report;
mod service;
mod stats;
mod stream;
mod suite;
mod trace;
mod workload;

use report::{Report, RUN_SECONDS};
use workload::{out_dir, RunArgs, Sizes, Workload};

const USAGE: &str = "\
slim-bench — the SLIM benchmark

USAGE:
    slim-bench [--seed N] [--reps N] [--workload NAME] [--traced] [--smoke]
        the suite: every workload (or one), REPS untraced repetitions plus
        one traced repetition each, every repetition a fresh child process
    slim-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
        one run; the last line of stdout is the JSON result object

OPTIONS:
    --workload NAME   batch_cab | stream_sm | stream_cab | service_sm | durable_sm
    --seed N          seed of every generated input           [default: 42]
    --seconds S       seconds one run measures for            [default: 15; smoke 1]
    --trace 0|1       single run: 0 = end-to-end metrics, 1 = per-layer metrics
    --reps N          suite: untraced repetitions per workload [default: 3; smoke 1]
    --traced          suite: only the traced repetition
    --smoke           about a tenth of the size, every check on
    --print-benchmark-json   print BENCHMARK.json as the registry defines it
";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    reps: Option<usize>,
    traced_only: bool,
    smoke: bool,
    print_benchmark_json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        reps: None,
        traced_only: false,
        smoke: false,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|_| "--reps takes a whole number".to_string())?;
                cli.reps = Some(n.max(1));
            }
            "--traced" => cli.traced_only = true,
            "--smoke" => cli.smoke = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace selects a single run and needs --workload".to_string());
    }
    Ok(cli)
}

/// One run of one workload; returns the exit code.
fn single_run(w: Workload, args: &RunArgs) -> i32 {
    let seed = args.seed;
    let mut rep = Report::new();
    let tr = match w {
        Workload::BatchCab => batch::run(args, &mut rep),
        Workload::StreamSm | Workload::StreamCab => stream::run_stream(w, args, &mut rep),
        Workload::ServiceSm => service::run(args, &mut rep),
        Workload::DurableSm => stream::run_durable(args, &mut rep),
    };
    if args.traced {
        // Span-sum reconciliation: the spans around the layer calls must
        // explain their root spans to within 5 %.
        let gap = tr.worst_root_gap();
        rep.set("trace.root_gap_pct", 100.0 * gap);
        rep.check(
            "spans_reconcile",
            gap <= 0.05,
            format!(
                "children leave {:.2} % of a root span unexplained",
                100.0 * gap
            ),
        );
        let path = out_dir().join(format!("trace-{}.jsonl", w.name()));
        let stamp = suite::Stamp::take()
            .json()
            .str("workload", w.name())
            .u64("seed", seed)
            .render();
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| tr.write_jsonl(&path, &stamp));
        if let Err(e) = written {
            eprintln!("[bench] writing {}: {e}", path.display());
        }
    }
    eprintln!(
        "[bench] {} seed {seed}: {}/{} checks passed, {} of {} operations failed",
        w.name(),
        rep.checks - rep.checks_failed,
        rep.checks,
        rep.failed,
        rep.attempted
    );
    println!("{}", rep.json_line(args.traced));
    i32::from(!rep.correct())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return;
    }
    let sizes = if cli.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 1 } else { RUN_SECONDS });
    let code = match (cli.trace, cli.workload) {
        (Some(traced), Some(w)) => single_run(
            w,
            &RunArgs {
                seed: cli.seed,
                seconds: seconds as f64,
                traced,
                sizes,
            },
        ),
        _ => suite::run(&suite::SuiteArgs {
            workloads: cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            seed: cli.seed,
            seconds,
            reps: cli.reps.unwrap_or(if cli.smoke { 1 } else { 3 }),
            traced_only: cli.traced_only,
            smoke: cli.smoke,
        }),
    };
    std::process::exit(code);
}
