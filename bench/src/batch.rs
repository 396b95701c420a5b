//! `batch_cab`: the paper's own experiment. Two Cab-like CSVs go
//! through `slim_cli::run` — CSV in, links CSV out — once with the
//! fig-11 LSH settings and once brute force. The traced form calls the
//! same library stages the CLI calls, one span each.

use std::path::{Path, PathBuf};
use std::time::Instant;

use slim::core::io::{load_dataset_csv, write_links_csv, write_records_csv};
use slim::core::matching::greedy_max_matching;
use slim::core::threshold::select_threshold;
use slim::core::{Edge, EntityId, LocationDataset, Slim};
use slim::eval::evaluate_links;
use slim::lsh::LshFilter;

use crate::probes;
use crate::report::Report;
use crate::stats::median;
use crate::stream::set_datagen;
use crate::trace::Tracer;
use crate::workload::{
    dataset_records, generate, peak_rss_mb, repeat_for, timed_setups, Family, RunArgs, Scratch,
    Views, FIG11_LSH,
};

struct BatchSetup {
    views: Views,
    left: PathBuf,
    right: PathBuf,
    out: PathBuf,
}

fn dump(ds: &LocationDataset, path: &Path) {
    let file = std::fs::File::create(path).expect("creating a scratch CSV");
    let mut w = std::io::BufWriter::new(file);
    write_records_csv(&mut w, &dataset_records(ds)).expect("writing a scratch CSV");
    std::io::Write::flush(&mut w).expect("flushing a scratch CSV");
}

fn set_up(args: &RunArgs, scratch: &Scratch, tr: &mut Tracer) -> BatchSetup {
    tr.enter("setup");
    let views = generate(Family::Cab, args.sizes.batch_scale, args.seed, tr);
    let left = scratch.path().join("left.csv");
    let right = scratch.path().join("right.csv");
    tr.span("csv.write", || {
        dump(&views.sample.left, &left);
        dump(&views.sample.right, &right);
    });
    tr.exit();
    BatchSetup {
        views,
        left,
        right,
        out: scratch.path().join("links.csv"),
    }
}

fn cli_args(s: &BatchSetup, lsh: bool) -> Vec<String> {
    let mut a = vec![
        s.left.display().to_string(),
        s.right.display().to_string(),
        "--out".to_string(),
        s.out.display().to_string(),
    ];
    if lsh {
        a.push("--lsh".to_string());
        for (flag, value) in [
            ("--lsh-threshold", FIG11_LSH.threshold.to_string()),
            ("--lsh-step", FIG11_LSH.step_windows.to_string()),
            ("--lsh-level", FIG11_LSH.spatial_level.to_string()),
            ("--buckets", FIG11_LSH.num_buckets.to_string()),
        ] {
            a.push(flag.to_string());
            a.push(value);
        }
    }
    a
}

/// One row of a links CSV: `(left, right, score as printed)`.
type LinkRow = (EntityId, EntityId, String);

/// The links CSV the CLI wrote.
fn read_links(path: &Path) -> Vec<LinkRow> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let mut f = line.split(',');
            let l = f.next()?.parse().ok()?;
            let r = f.next()?.parse().ok()?;
            Some((EntityId(l), EntityId(r), f.next()?.to_string()))
        })
        .collect()
}

/// One `slim_cli::run`: seconds, and the links it wrote.
fn cli_run(s: &BatchSetup, lsh: bool) -> Result<(f64, Vec<LinkRow>), String> {
    let opts = slim_cli::parse_args(&cli_args(s, lsh))?;
    let _ = std::fs::remove_file(&s.out);
    let start = Instant::now();
    slim_cli::run(&opts)?;
    let secs = start.elapsed().as_secs_f64();
    Ok((secs, read_links(&s.out)))
}

fn f1(links: &[LinkRow], views: &Views) -> f64 {
    let pairs: Vec<(EntityId, EntityId)> = links.iter().map(|(l, r, _)| (*l, *r)).collect();
    evaluate_links(&pairs, &views.sample.ground_truth).f1
}

/// Timed CLI repetitions: LSH then brute force, alternating.
struct CliPass {
    link_s: Vec<f64>,
    brute_s: Vec<f64>,
    lsh_links: Vec<LinkRow>,
    lsh_f1: f64,
}

fn cli_pass(s: &BatchSetup, seconds: f64, min_reps: usize, rep: &mut Report) -> CliPass {
    let mut pass = CliPass {
        link_s: Vec::new(),
        brute_s: Vec::new(),
        lsh_links: Vec::new(),
        lsh_f1: 0.0,
    };
    // F1 per repetition, `[LSH, brute]`.
    let mut f1s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    repeat_for(seconds, min_reps, |_| {
        let mut spent = 0.0;
        for lsh in [true, false] {
            match cli_run(s, lsh) {
                Ok((secs, links)) => {
                    spent += secs;
                    rep.ops("cli runs", 1, 0);
                    f1s[usize::from(!lsh)].push(f1(&links, &s.views));
                    if lsh {
                        pass.link_s.push(secs);
                        pass.lsh_links = links;
                    } else {
                        pass.brute_s.push(secs);
                    }
                }
                Err(e) => {
                    eprintln!("[bench] slim_cli::run failed: {e}");
                    rep.ops("cli runs", 1, 1);
                    // Charge the budget so a broken CLI cannot spin.
                    spent += seconds;
                }
            }
        }
        spent
    });
    // The batch pipeline is deterministic: every repetition must link
    // the same pairs, so one F1 per path stands for all of them.
    let repeats = f1s
        .iter()
        .all(|path| !path.is_empty() && path.iter().all(|f| *f == path[0]));
    rep.check(
        "batch_f1_repeats",
        repeats,
        format!("per-repetition [LSH, brute] F1: {f1s:?}"),
    );
    pass.lsh_f1 = f1s[0].first().copied().unwrap_or(0.0);
    let brute_f1 = f1s[1].first().copied().unwrap_or(0.0);
    eprintln!(
        "[bench] link_f1: {:.6} with LSH, {brute_f1:.6} brute force",
        pass.lsh_f1
    );
    // Check (4): the LSH path still links most of what it should. On a
    // seed whose data brute force itself links worse than that, the LSH
    // path is held to brute force instead.
    let floor = (brute_f1 - 0.1).min(0.8);
    rep.check(
        "batch_lsh_f1_floor",
        pass.lsh_f1 >= floor,
        format!("LSH-path F1 {:.4}, floor {floor:.4}", pass.lsh_f1),
    );
    pass
}

/// The library stages behind one CLI run, one span each; returns the
/// links it selects.
fn decomposed(s: &BatchSetup, lsh: bool, tr: &mut Tracer, rep: &mut Report) -> Vec<Edge> {
    let cfg = slim_cli::parse_args(&cli_args(s, lsh))
        .expect("the bench's own CLI arguments parse")
        .config;
    // Span names of the brute pass carry a suffix so the LSH pass's
    // stages stay separately addressable.
    let (root, read, build, score, greedy, select, write) = if lsh {
        (
            "batch.lsh",
            "core.io.read",
            "core.history.build",
            "core.similarity.score",
            "core.matching.greedy",
            "core.threshold.select",
            "core.io.write",
        )
    } else {
        (
            "batch.brute",
            "core.io.read.brute",
            "core.history.build.brute",
            "core.similarity.score_brute",
            "core.matching.greedy.brute",
            "core.threshold.select.brute",
            "core.io.write.brute",
        )
    };
    tr.enter(root);
    let (left, right) = tr.span(read, || {
        (
            load_dataset_csv(&s.left).expect("the scratch CSV loads"),
            load_dataset_csv(&s.right).expect("the scratch CSV loads"),
        )
    });
    let slim = Slim::new(cfg).expect("the CLI's configuration is valid");
    let candidates = if lsh {
        let filter = tr.span("lsh.signature.build", || {
            LshFilter::build_auto(FIG11_LSH, &left, &right, cfg.window_width_secs)
        });
        let candidates = tr.span("lsh.banding.candidates", || filter.candidates());
        let possible = (left.num_entities() * right.num_entities()).max(1);
        let truth = &s.views.sample.ground_truth;
        let kept = candidates
            .iter()
            .filter(|(l, r)| truth.get(l) == Some(r))
            .count();
        rep.set("lsh.banding.candidates", candidates.len() as f64);
        rep.set(
            "lsh.banding.candidate_ratio",
            candidates.len() as f64 / possible as f64,
        );
        rep.set(
            "lsh.banding.true_pair_recall",
            kept as f64 / truth.len().max(1) as f64,
        );
        Some(candidates)
    } else {
        None
    };
    let prepared = tr.span(build, || slim.prepare(&left, &right));
    if lsh {
        let bins: usize = [prepared.left(), prepared.right()]
            .iter()
            .flat_map(|set| set.histories())
            .map(|h| h.num_bins())
            .sum();
        rep.set("core.history.bins", bins as f64);
    }
    let pairs = match candidates {
        Some(c) => c,
        None => tr.span("core.pairs.all", || prepared.all_pairs()),
    };
    let (edges, stats) = tr.span(score, || prepared.score_pairs(&pairs));
    let matching = tr.span(greedy, || greedy_max_matching(&edges));
    let weights: Vec<f64> = matching.iter().map(|e| e.weight).collect();
    let threshold = tr.span(select, || select_threshold(&weights, cfg.threshold_method));
    let links: Vec<Edge> = match &threshold {
        Some(t) => matching
            .iter()
            .filter(|e| e.weight >= t.threshold)
            .copied()
            .collect(),
        None => matching.clone(),
    };
    tr.span(write, || {
        let file = std::fs::File::create(&s.out).expect("creating the links CSV");
        let mut w = std::io::BufWriter::new(file);
        write_links_csv(&mut w, &links).expect("writing the links CSV");
        std::io::Write::flush(&mut w).expect("flushing the links CSV");
    });
    tr.exit();
    if lsh {
        rep.set("core.matching.edges", edges.len() as f64);
    } else {
        rep.set(
            "core.similarity.record_comparisons",
            stats.record_pair_comparisons as f64,
        );
        let score_s = tr.total_s(score);
        if stats.record_pair_comparisons > 0 {
            rep.set(
                "core.similarity.ns_per_comparison",
                score_s * 1e9 / stats.record_pair_comparisons as f64,
            );
        }
    }
    links
}

/// `batch_cab`.
pub fn run(args: &RunArgs, rep: &mut Report) -> Tracer {
    let mut tr = Tracer::new(args.traced);
    let scratch = Scratch::new("batch");
    let (setup, setup_s) = if args.traced {
        (set_up(args, &scratch, &mut tr), 0.0)
    } else {
        timed_setups(args.sizes.setups, || {
            set_up(args, &scratch, &mut Tracer::new(false))
        })
    };
    let records = setup.views.events.len();

    let pass = cli_pass(&setup, args.seconds, args.sizes.min_reps, rep);
    let link_s = median(&pass.link_s);
    let brute_s = median(&pass.brute_s);
    if !args.traced {
        rep.set("setup_s", setup_s);
        // Input records linked per second on the paper's configuration
        // (the LSH path): the batch reading of "events per second".
        rep.set("events_per_s", records as f64 / link_s.max(1e-9));
        rep.set("link_f1", pass.lsh_f1);
        rep.set("peak_rss_mb", peak_rss_mb());
        return tr;
    }

    set_datagen(rep, &tr);
    rep.set("batch_link_s", link_s);
    rep.set("batch_brute_s", brute_s);
    let lsh_links = decomposed(&setup, true, &mut tr, rep);
    // The decomposed stages are the CLI's own: same pairs, same scores
    // as printed.
    let printed: Vec<LinkRow> = lsh_links
        .iter()
        .map(|e| (e.left, e.right, format!("{:.6}", e.weight)))
        .collect();
    rep.check(
        "decomposed_matches_cli",
        printed == pass.lsh_links,
        format!(
            "{} links decomposed, {} from the CLI",
            printed.len(),
            pass.lsh_links.len()
        ),
    );
    decomposed(&setup, false, &mut tr, rep);

    let read_s = tr.total_s("core.io.read");
    rep.set("core.io.read_s", read_s);
    rep.set("core.io.records_per_s", records as f64 / read_s.max(1e-9));
    rep.set("core.history.build_s", tr.total_s("core.history.build"));
    rep.set("lsh.signature.build_s", tr.total_s("lsh.signature.build"));
    rep.set(
        "lsh.banding.candidates_s",
        tr.total_s("lsh.banding.candidates"),
    );
    rep.set(
        "core.similarity.score_s",
        tr.total_s("core.similarity.score"),
    );
    rep.set(
        "core.similarity.score_brute_s",
        tr.total_s("core.similarity.score_brute"),
    );
    rep.set("core.matching.greedy_s", tr.total_s("core.matching.greedy"));
    rep.set(
        "core.threshold.select_s",
        tr.total_s("core.threshold.select"),
    );
    // What `slim_cli::run` takes beyond the library stages it calls.
    let lsh_root = tr.totals()["batch.lsh"];
    let stages_s = (lsh_root.total_ns - lsh_root.self_ns) as f64 / 1e9;
    rep.set("cli.overhead_s", link_s - stages_s);
    let traced_s = tr.total_s("batch.lsh") + tr.total_s("batch.brute");
    rep.set(
        "trace_overhead_pct",
        100.0 * (traced_s - (link_s + brute_s)) / (link_s + brute_s),
    );
    probes::geocell(
        rep,
        &setup.views,
        slim_cli::CliOptions::default().config.spatial_level,
    );
    tr
}
