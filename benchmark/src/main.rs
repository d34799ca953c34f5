//! `demonbench` command line. See `benchmark/README.md`.

use demonbench::runner::{self, RunArgs};
use demonbench::{selfcheck, spec};

const USAGE: &str =
    "usage: demonbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       demonbench selfcheck --runs <n> [--seed <n>] [--seconds <s>]
       demonbench spec";

fn fail(message: &str) -> ! {
    eprintln!("demonbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let subcommand = args.next_if(|a| !a.starts_with("--"));
    let (mut workload, mut seed, mut seconds, mut trace, mut quick, mut runs) =
        (None, 1u64, spec::RUN_SECONDS, false, false, None);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let Some(value) = args.next() else {
            fail(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| fail(&format!("{flag} {value:?} is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => trace = number() != 0,
            "--runs" => runs = Some(number() as usize),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let code = match subcommand.as_deref() {
        None => {
            let Some(workload) = workload else {
                fail("--workload is required");
            };
            runner::run(&RunArgs {
                workload,
                seed,
                seconds,
                trace,
                quick,
            })
        }
        Some("selfcheck") => match runs {
            Some(n) if n >= 5 => selfcheck::run(n, seed, seconds),
            _ => fail("selfcheck needs --runs <n> with n >= 5"),
        },
        Some("spec") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&spec::benchmark_json()).expect("spec serializes")
            );
            0
        }
        Some(other) => fail(&format!("unknown subcommand {other}")),
    };
    std::process::exit(code);
}
