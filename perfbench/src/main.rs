//! Command-line entry point; see the library docs for what is measured.

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <zoo_grid|tiny_jobs_served|scale_100k> --seed <n> --seconds <n> --trace <0|1> [--reduced]";

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: gate failed: {problem}");
            }
            println!("{}", outcome.summary_line());
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
