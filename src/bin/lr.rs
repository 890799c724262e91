//! The `lr` binary: thin I/O wrapper around [`link_reversal::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    // `run_cli` reads stdin only for the commands that consume it.
    match link_reversal::cli::run_cli(&arg_refs, std::io::stdin().lock()) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
