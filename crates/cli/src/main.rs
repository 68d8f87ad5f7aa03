//! `cpssec` — the command-line face of the toolchain.
//!
//! `cpssec help` lists every subcommand and flag; its usage text (`USAGE`
//! in `cli.rs`) is the one list of them.

mod cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("cpssec: {message}");
            ExitCode::FAILURE
        }
    }
}
