//! The batch CLI's output, byte for byte. `slim_cli::run` links the
//! `--demo` pair twice — with the fig-11 LSH flags (`bench/`'s
//! `batch_cab` settings) and brute force — and each links CSV must equal
//! the one the CLI wrote for the same command at commit `27ef0d4`, before
//! the LSH path read signatures from the bins, scored by merge walk over
//! flat history leaves and parsed CSV fields on a fast path. A change to
//! a score's last printed digit, to a link, or to the header fails here.

const FIG11_LSH: [&str; 9] = [
    "--lsh",
    "--lsh-threshold",
    "0.4",
    "--lsh-step",
    "48",
    "--lsh-level",
    "12",
    "--buckets",
    "4096",
];

/// The links CSV `slim-link --demo DIR --out DIR/links.csv [flags]`
/// writes, in a directory of its own.
fn demo_links(name: &str, flags: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("slim_batch_golden_{name}_{}", std::process::id()));
    let out = dir.join("links.csv");
    let mut args = vec![
        "--demo".to_string(),
        dir.display().to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ];
    args.extend(flags.iter().map(|f| f.to_string()));
    let opts = slim_cli::parse_args(&args).expect("the flags parse");
    slim_cli::run(&opts).expect("the demo pair links");
    let links = std::fs::read_to_string(&out).expect("the links CSV was written");
    let _ = std::fs::remove_dir_all(&dir);
    links
}

#[test]
fn lsh_links_equal_the_golden_file() {
    let links = demo_links("lsh", &FIG11_LSH);
    assert!(links.lines().count() > 3, "{links}");
    assert_eq!(links, include_str!("fixtures/batch_demo_lsh_links.csv"));
}

#[test]
fn brute_force_links_equal_the_golden_file() {
    let links = demo_links("brute", &[]);
    assert!(links.lines().count() > 3, "{links}");
    assert_eq!(links, include_str!("fixtures/batch_demo_brute_links.csv"));
}
