//! # ptq-bench — the experiment runner
//!
//! `ptq-bench <experiment> [operands] [flags]`: one entry of
//! [`EXPERIMENTS`] per table/figure of the paper (see DESIGN.md §3 for the
//! index) plus the workload-level commands. Every paper experiment prints
//! a Markdown table shaped like the paper's and returns its raw numbers,
//! which land in `bench_results/<name>.json` so that EXPERIMENTS.md is
//! regenerable. `ptq-bench all` runs the table in order in one process,
//! building each zoo workload once.

mod cli;
mod ctx;
mod density;
mod fig1;
mod fig12;
mod fig5;
mod fig7;
mod fig8;
mod fig9;
mod firstlast;
mod flags;
mod table2;
mod table3;
mod table5;
mod table6;

use ctx::Ctx;
use flags::Flags;

type Run = fn(&mut Ctx) -> Option<serde::Value>;

/// One runnable entry, `(usage, about, run)`: its command name followed by
/// the operands it takes, what it reproduces, and the function that prints
/// it and returns the rows to save as `bench_results/<name>.json` (`None`
/// from the workload-level commands, which print only).
struct Experiment(&'static str, &'static str, Run);

impl Experiment {
    fn name(&self) -> &'static str {
        self.0.split(' ').next().unwrap_or(self.0)
    }
}

/// Everything `ptq-bench` can run, in the paper's order: dispatch, the
/// usage text, `all`, the smoke test (through the usage text) and CI are
/// driven by this table.
const EXPERIMENTS: &[Experiment] = &[
    Experiment("fig1", "Figure 1: value grids and MSE", fig1::run),
    Experiment("table2", "Table 2: zoo pass rate (Figure 4)", table2::run),
    Experiment("table3", "Table 3: per-model accuracy", table3::run),
    Experiment("fig5", "Figure 5: loss by model size", fig5::run),
    Experiment("firstlast", "§4.3.1: first/last operators", firstlast::run),
    Experiment("table5", "Table 5: single vs mixed formats", table5::run),
    Experiment("table6", "Table 6: static vs dynamic", table6::run),
    Experiment("fig7", "Figure 7: BatchNorm calibration", fig7::run),
    Experiment("fig8", "Figure 8: mixed-format Linear MSE", fig8::run),
    Experiment("fig9", "Figure 9: calibration vs MSE", fig9::run),
    Experiment("density", "Eq. 1-2: EeMm grid density", density::run),
    Experiment("fig12", "Figure 12: extended coverage", fig12::run),
    Experiment("zoo", "list the workloads", cli::zoo),
    Experiment(
        "quantize <workload> [format]",
        "one workload, each format",
        cli::quantize,
    ),
    Experiment(
        "sensitivity <workload>",
        "per-operator ranking",
        cli::sensitivity,
    ),
    Experiment("tune <workload>", "A.1 recipe search", cli::tune),
];

/// Print `problem` and the usage text, exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n\nusage: ptq-bench <experiment> [operands] [flags]\n");
    for Experiment(usage, about, _) in EXPERIMENTS {
        eprintln!("  {usage:<30}{about}");
    }
    eprintln!(
        "  {:<30}every experiment above that takes no operand, in this order, in one process\n\n\
         results land in bench_results/<experiment>.json; a <workload> is a unique prefix of a\n\
         name `ptq-bench zoo` lists; [format] is E5M2 | E4M3 | E3M4 | INT8 | mixed | all\n\
         flags: {}",
        "all",
        flags::VOCABULARY
    );
    std::process::exit(2);
}

fn main() {
    let flags = Flags::parse_from(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let Some(command) = flags.operands.first().cloned() else {
        usage("no experiment named");
    };
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| match command.as_str() {
            "all" => e.0 == e.name(), // the usage is the bare name: no operands
            name => e.name() == name,
        })
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment {command:?}"));
    }
    let mut ctx = Ctx::new(flags);
    for e in selected {
        if let Some(rows) = (e.2)(&mut ctx) {
            ctx.save_json(e.name(), rows);
        }
        ctx.end_experiment();
    }
    ctx.finish(&command);
}
