//! Reproduce every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release --example reproduce            # default scaled-down workloads
//! cargo run --release --example reproduce -- --scale 0.5
//! cargo run --release --example reproduce -- --only fig8,fig9
//! ```
//!
//! Prints the scales it runs at, then one table per paper figure (2,
//! 4-11); compare their shapes with the published plots.

use slim::eval::figures::{self, RunSettings};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut settings = RunSettings::default();
    let mut only: Option<Vec<String>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v: f64 = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes a number");
                // Cab takes the scale directly; SM (30k users at 1.0) is
                // kept a quarter of it so both finish in similar time.
                settings.cab_scale = v.clamp(0.02, 1.0);
                settings.sm_scale = (v * 0.25).clamp(0.005, 1.0);
                i += 2;
            }
            "--seed" => {
                settings.seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
                i += 2;
            }
            "--only" => {
                only = Some(
                    args.get(i + 1)
                        .expect("--only takes a comma list")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let wants = |name: &str| {
        only.as_ref()
            .map(|o| o.iter().any(|x| x == name))
            .unwrap_or(true)
    };

    println!(
        "SLIM reproduction harness — cab_scale {:.3}, sm_scale {:.3}, seed {}\n",
        settings.cab_scale, settings.sm_scale, settings.seed
    );

    if wants("fig2") {
        let r = figures::fig2::run(&settings);
        println!("{}", figures::fig2::render(&r).render());
        println!("{}\n", figures::fig2::summary(&r));
    }
    if wants("fig4") {
        let grid = figures::fig4_5::run_cab(&settings);
        println!("{}", figures::fig4_5::render("Fig 4 (Cab)", &grid).render());
    }
    if wants("fig5") {
        let grid = figures::fig4_5::run_sm(&settings);
        println!("{}", figures::fig4_5::render("Fig 5 (SM)", &grid).render());
    }
    if wants("fig6") {
        let fits = figures::fig6::run(&settings);
        println!("{}", figures::fig6::render(&fits).render());
    }
    if wants("fig7") {
        let pts = figures::fig7::run_cab(&settings);
        println!("{}", figures::fig7::render("Fig 7a/b (Cab)", &pts).render());
        let pts = figures::fig7::run_sm(&settings);
        println!("{}", figures::fig7::render("Fig 7c/d (SM)", &pts).render());
    }
    if wants("fig8") {
        let pts = figures::fig8::run_cab(&settings);
        println!("{}", figures::fig8::render("Fig 8a/b (Cab)", &pts).render());
        let pts = figures::fig8::run_sm(&settings);
        println!("{}", figures::fig8::render("Fig 8c/d (SM)", &pts).render());
    }
    if wants("fig9") {
        let pts = figures::fig9::run_cab(&settings);
        println!("{}", figures::fig9::render("Fig 9a (Cab)", &pts).render());
        let pts = figures::fig9::run_sm(&settings);
        println!("{}", figures::fig9::render("Fig 9b (SM)", &pts).render());
    }
    if wants("fig10") {
        let (levels, windows) = figures::fig10::default_ranges();
        let pts = figures::fig10::run_spatial(&settings, &levels);
        println!(
            "{}",
            figures::fig10::render("Fig 10a", &pts, false).render()
        );
        let pts = figures::fig10::run_window(&settings, &windows);
        println!("{}", figures::fig10::render("Fig 10b", &pts, true).render());
    }
    if wants("fig11") {
        let pts = figures::fig11::run(&settings, &figures::fig11::ComparisonConfig::default());
        println!("{}", figures::fig11::render(&pts).render());
    }
}
