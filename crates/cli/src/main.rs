//! `wrt` — command-line front end for the weighted-random-testing
//! workspace.
//!
//! `wrt help` prints the usage of every command and flag; it is the one
//! copy, shared with the resident server (`wrt_serve::exec::USAGE`).
//!
//! A circuit argument is first tried as a workload registry name
//! (e.g. `s1`, `c7552ish`), then as a `.bench` file path; `#<uid>`
//! addresses a circuit already registered in the target registry.
//!
//! Output piped into a reader that stops early (`wrt generate | head -1`)
//! ends the run cleanly instead of panicking on the closed pipe.
//!
//! Long-running commands respond to Ctrl-C by cancelling cooperatively:
//! the run stops at its next budget check-in with a structured partial
//! result (and, for optimize/atpg, a resume checkpoint) instead of the
//! process being killed mid-write.  A second Ctrl-C kills the process.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "--remote" => match rest.split_first() {
            Some((addr, argv)) => commands::remote(addr, argv),
            None => Err(format!("--remote requires <addr> <command ...>\n{}", commands::USAGE)),
        },
        "serve" => commands::serve(rest),
        "client" => commands::client(rest),
        _ => commands::run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
