//! `e2e` — the workflow-level benchmark (see the crate documentation).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(e2e_bench::cli::main(&args));
}
