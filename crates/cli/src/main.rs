//! The `ucfg` command-line tool. See `ucfg_cli::usage`.

use std::process::ExitCode;
use ucfg_support::obs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match ucfg_cli::parse(&args) {
        Ok(invocation) => invocation,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let code = match ucfg_cli::run(&invocation, &mut std::io::stdin().lock()) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    // `--trace`, `UCFG_TRACE=1` or `serve` switched the metrics layer on:
    // export it once, named after the command.
    if obs::enabled() {
        match obs::write_metrics(invocation.name()) {
            Ok(p) => eprintln!("metrics written to {}", p.display()),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
        eprintln!("{}", obs::summary());
    }
    code
}
