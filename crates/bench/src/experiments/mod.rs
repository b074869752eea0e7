//! Every experiment of the suite, each one
//! `run(&RunCtx) -> Result<(), String>`.
//!
//! Each submodule owns one experiment, except that Figures 7–10 share
//! [`crate::run_paper_figure`] and Section 5.2's three tables share
//! [`section52`]. The `all_figures` binary runs them from [`ALL`] in one
//! process with one [`RunCtx`], so the memoized traces of
//! [`crate::paper_trace`] are generated once per spec and each distinct
//! cell is simulated once ([`RunCtx::simulate`]);
//! `all_figures --only <name>` picks a subset ([`select`]).

use crate::RunCtx;

pub mod exp_cache_policy;
pub mod exp_dfs;
pub mod exp_faults;
pub mod exp_hetero;
pub mod exp_lard_variants;
pub mod exp_latency_curve;
pub mod exp_memory_sim;
pub mod exp_memory_sweep;
pub mod exp_persistent;
pub mod exp_replay;
pub mod exp_replication;
pub mod exp_sensitivity;
pub mod exp_workload;
pub mod fig03_oblivious_surface;
pub mod fig04_conscious_surface;
pub mod fig05_throughput_increase;
pub mod section52;
pub mod table2_traces;

/// Figure 7: throughput vs cluster size for the Calgary trace.
pub fn fig07_calgary(ctx: &RunCtx) -> Result<(), String> {
    crate::run_paper_figure(ctx, "fig07_calgary", &l2s_trace::TraceSpec::calgary())
}

/// Figure 8: throughput vs cluster size for the Clarknet trace.
pub fn fig08_clarknet(ctx: &RunCtx) -> Result<(), String> {
    crate::run_paper_figure(ctx, "fig08_clarknet", &l2s_trace::TraceSpec::clarknet())
}

/// Figure 9: throughput vs cluster size for the NASA trace.
pub fn fig09_nasa(ctx: &RunCtx) -> Result<(), String> {
    crate::run_paper_figure(ctx, "fig09_nasa", &l2s_trace::TraceSpec::nasa())
}

/// Figure 10: throughput vs cluster size for the Rutgers trace.
pub fn fig10_rutgers(ctx: &RunCtx) -> Result<(), String> {
    crate::run_paper_figure(ctx, "fig10_rutgers", &l2s_trace::TraceSpec::rutgers())
}

/// One experiment: its name (the stem of its CSV) and its body.
pub type Experiment = (&'static str, fn(&RunCtx) -> Result<(), String>);

/// Every experiment, in suite order: model studies first, then the four
/// headline figures, then the simulator-level studies.
pub const ALL: &[Experiment] = &[
    ("fig03_oblivious_surface", fig03_oblivious_surface::run),
    ("fig04_conscious_surface", fig04_conscious_surface::run),
    ("fig05_throughput_increase", fig05_throughput_increase::run),
    ("exp_memory_sweep", exp_memory_sweep::run),
    ("exp_replication", exp_replication::run),
    ("table2_traces", table2_traces::run),
    ("fig07_calgary", fig07_calgary),
    ("fig08_clarknet", fig08_clarknet),
    ("fig09_nasa", fig09_nasa),
    ("fig10_rutgers", fig10_rutgers),
    ("exp_miss_rates", section52::miss_rates),
    ("exp_idle_times", section52::idle_times),
    ("exp_forwarding", section52::forwarding),
    ("exp_memory_sim", exp_memory_sim::run),
    ("exp_sensitivity", exp_sensitivity::run),
    ("exp_lard_variants", exp_lard_variants::run),
    ("exp_latency_curve", exp_latency_curve::run),
    ("exp_persistent", exp_persistent::run),
    ("exp_dfs", exp_dfs::run),
    ("exp_cache_policy", exp_cache_policy::run),
    ("exp_faults", exp_faults::run),
    ("exp_hetero", exp_hetero::run),
    ("exp_workload", exp_workload::run),
    ("exp_replay", exp_replay::run),
];

/// Picks the experiments to run from `all_figures`' arguments: every
/// experiment without arguments, else those named by one or more
/// `--only <name>`, once each and in [`ALL`] order. An unknown name, a
/// `--only` without a value, or any other argument is an `Err` that
/// lists the valid names.
pub fn select(args: impl IntoIterator<Item = String>) -> Result<Vec<Experiment>, String> {
    let valid = || {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        format!("valid names: {}", names.join(", "))
    };
    let mut wanted = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg != "--only" {
            return Err(format!(
                "unknown argument {arg:?}; usage: all_figures [--only <name>]..."
            ));
        }
        let name = args
            .next()
            .ok_or_else(|| format!("--only needs an experiment name; {}", valid()))?;
        if !ALL.iter().any(|(known, _)| *known == name) {
            return Err(format!("unknown experiment {name:?}; {}", valid()));
        }
        wanted.push(name);
    }
    Ok(ALL
        .iter()
        .filter(|(name, _)| wanted.is_empty() || wanted.iter().any(|w| w == name))
        .copied()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        select(args.iter().map(|a| a.to_string())).map(|s| s.iter().map(|(n, _)| *n).collect())
    }

    #[test]
    fn names_in_all_are_unique() {
        for (i, (name, _)) in ALL.iter().enumerate() {
            assert!(
                ALL[i + 1..].iter().all(|(other, _)| other != name),
                "{name} is listed twice"
            );
        }
    }

    #[test]
    fn no_arguments_select_every_experiment() {
        let all: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&[]).unwrap(), all);
    }

    #[test]
    fn selected_experiments_run_once_in_all_order() {
        let picked = names(&[
            "--only",
            "exp_replay",
            "--only",
            "fig03_oblivious_surface",
            "--only",
            "exp_replay",
        ])
        .unwrap();
        assert_eq!(picked, ["fig03_oblivious_surface", "exp_replay"]);
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let err = names(&["--only", "fig99"]).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        for (name, _) in ALL {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }

    #[test]
    fn only_without_a_value_is_an_error() {
        let err = names(&["--only", "table2_traces", "--only"]).unwrap_err();
        assert!(err.contains("--only needs"), "{err}");
        assert!(err.contains("table2_traces"), "{err}");
        assert!(names(&["table2_traces"]).is_err());
    }
}
