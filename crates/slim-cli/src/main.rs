//! `slim-link`: link two CSV location datasets with SLIM (SIGMOD 2020).

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match slim_cli::parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            // `--help` also lands here with the usage text; exit cleanly.
            let is_help = msg.starts_with("slim-link");
            if is_help {
                println!("{msg}");
                std::process::exit(0);
            }
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match slim_cli::run(&opts) {
        Ok(summary) => print!("{summary}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
